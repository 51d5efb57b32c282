package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"

	"extradeep/internal/core"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
)

// kick ensures a fit loop is running for the application: it marks the
// state dirty and, when no loop holds the claim, spawns one under the
// server lifecycle context. Called after every accepted upload and once
// per application at Start.
func (s *Server) kick(a *appState) {
	ctx, ok := s.schedulable()
	if !ok {
		return
	}
	if !a.claimFit() {
		return
	}
	s.fits.Add(1)
	go func(ctx context.Context) {
		defer s.fits.Done()
		s.fitLoop(ctx, a)
	}(ctx)
}

// fitLoop is the application's single fit goroutine: it turns dirty
// spool state into published snapshots until nothing is dirty, then
// releases the claim and exits. Because exactly one loop runs per
// application and each turn consumes the dirty flag once, a burst of N
// concurrent uploads costs at most two campaigns — the one in flight
// when the burst lands, plus one over the complete spool.
func (s *Server) fitLoop(ctx context.Context, a *appState) {
	for {
		// Absorb the rest of an upload burst before consuming the turn:
		// everything spooled during the window lands in this campaign.
		if w := s.cfg.CoalesceWindow; w > 0 && ctx.Err() == nil {
			_ = s.clock.Sleep(ctx, w)
		}
		gen, done := a.takeTurn(ctx.Err() != nil)
		if done {
			return
		}
		// Bound campaign concurrency across applications.
		select {
		case s.fitSem <- struct{}{}:
		case <-ctx.Done():
			a.abort()
			return
		}
		snap, out := s.campaign(ctx, a, gen)
		<-s.fitSem
		if ctx.Err() != nil && snap == nil {
			// Interrupted mid-campaign: the spool content this turn
			// claimed was never fitted. Put the turn back so a restarted
			// server (or a later Start) re-fits it.
			a.abort()
			return
		}
		a.publish(snap, out)
	}
}

// abort returns an unconsumed turn: the spool stays dirty and the loop's
// claim is released, so the work is picked up by the next kick (in this
// process or after a restart's spool rescan).
func (a *appState) abort() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dirty = true
	a.fitting = false
	a.signalLocked()
}

// campaign runs one full pipeline over the application's profile set —
// every spooled file, decoded once when it was admitted (or when a
// restart rebuilt the set) — and builds the snapshot to publish. The set
// reports exactly what ingest.LoadDir reports over the spool, and the
// pipeline configuration is exactly the batch CLI's — pipeline.New's
// default aggregation and modeling options, the same lenient ingest with
// degradation gate — so the fitted ModelSet is byte-identical to a batch
// run over the same files. With a
// checkpoint directory, the campaign writes one record per fit task
// under CheckpointDir/<app> and (with Resume) reuses every task whose
// series and options are unchanged — across restarts and across
// campaigns. Adding a configuration changes the series of every kernel
// it touches, so an upload of a new configuration refits those kernels;
// kernels it does not touch are reused.
func (s *Server) campaign(ctx context.Context, a *appState, gen int64) (*Snapshot, *fitOutcome) {
	cfg := s.cfg
	set, err := a.profileSet()
	if err != nil {
		return nil, &fitOutcome{gen: gen, err: err}
	}
	var ckpt *resilience.Store
	if cfg.CheckpointDir != "" {
		dir := filepath.Join(cfg.CheckpointDir, a.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, &fitOutcome{gen: gen, err: err}
		}
		ckpt = &resilience.Store{Dir: dir}
	}
	pl := pipeline.New(pipeline.Config{
		Workers:      cfg.Workers,
		Observer:     cfg.Observer,
		Retry:        resilience.RetryPolicy{MaxAttempts: cfg.Retries},
		StageTimeout: cfg.StageTimeout,
		Clock:        cfg.Clock,
		Checkpoint:   ckpt,
		Resume:       cfg.Resume,
	})
	res, err := pl.Run(ctx, pipeline.RunSpec{
		Profiles: set,
		Ingest:   ingest.Options{Policy: ingest.Lenient},
		Setup:    cfg.Setup,
		Analyze:  cfg.Analyze,
	})
	if err != nil {
		var ge *ingest.GateError
		return nil, &fitOutcome{gen: gen, err: err, gate: errors.As(err, &ge)}
	}
	snap, err := buildSnapshot(gen, res)
	if err != nil {
		return nil, &fitOutcome{gen: gen, err: err}
	}
	return snap, &fitOutcome{gen: gen}
}

// buildSnapshot freezes one completed pipeline run into the immutable
// value queries answer from.
func buildSnapshot(gen int64, res *pipeline.RunResult) (*Snapshot, error) {
	encoded, err := core.EncodeModels(res.Models)
	if err != nil {
		return nil, err
	}
	var xs []float64
	for _, row := range res.Analysis.Rows {
		xs = append(xs, row.Ranks)
	}
	sort.Float64s(xs)
	return &Snapshot{
		Generation:  gen,
		Profiles:    len(res.Ingest.Profiles),
		Quarantined: len(res.Ingest.Quarantined),
		Warnings:    append([]string(nil), res.Ingest.Warnings...),
		Models:      res.Models,
		Analysis:    res.Analysis,
		Report:      res.Report,
		ModelsJSON:  encoded,
		Xs:          xs,
		Degraded:    res.Degraded(),
	}, nil
}
