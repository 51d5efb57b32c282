// Package serve is Extra-Deep's modeling-as-a-service layer: a
// long-running HTTP server wrapping the staged analysis pipeline
// (Ingest → Aggregate → EpochExtrapolate → Fit → Analyze → Report) so
// practitioners can query fitted models repeatedly — predict runtime,
// speedup, efficiency and cost (Eqs. 11–14) for new configurations —
// without re-running a batch analysis per question.
//
// Clients POST profile files (the same JSON/CSV formats internal/ingest
// quarantine-validates) to /v1/apps/{app}/profiles; the server spools
// accepted files per application, coalesces bursts of uploads into one
// fit campaign per application, and answers
// GET /v1/apps/{app}/{predict,speedup,efficiency,cost,models,report}
// from an atomically swapped fitted-model snapshot. The architecture:
//
//   - Store: application states sharded by FNV-1a of the app name, each
//     shard behind its own mutex, so uploads and queries for different
//     applications never contend on one lock. Per-application state
//     carries the upload spool bookkeeping, the decoded profile set
//     campaigns ingest, plus an atomic.Pointer to the current Snapshot —
//     queries load the pointer once and answer entirely from that value,
//     so a response always reflects one fully fitted campaign, never a
//     torn mix of two.
//
//   - Decode once: an upload is decoded and validated at admission, and
//     the decoded profile joins the application's name-keyed
//     ingest.Set when its file is committed to the spool. Campaigns
//     ingest a copy of that set instead of re-reading the spool, so each
//     uploaded byte is decoded once; a restarted server rebuilds the set
//     from the spool with one decode per file on its first campaign.
//
//   - Fit scheduling: an upload marks its application dirty and ensures
//     exactly one fit loop goroutine runs for it. The loop clears the
//     dirty flag, optionally waits one coalescing window (absorbing the
//     rest of a burst), runs the full pipeline over the profile set,
//     and publishes the new snapshot; if more uploads arrived meanwhile
//     the loop goes around again, so N concurrent uploads cost at most
//     two campaigns, not N. Campaign concurrency across applications is
//     bounded by a semaphore; the per-campaign fit fan-out reuses
//     internal/pipeline's bounded forEach pool.
//
//   - Parity by construction: the fit path IS the batch path. Uploads
//     are spooled verbatim under their canonical file names, the set
//     reports exactly what ingest.LoadDir reports over that directory
//     (TestPropServeSetMatchesSpool pins it), and the campaign runs
//     pipeline.Run over the set with the same options the extradeep CLI
//     would use, so the fitted ModelSet is byte-identical to a batch run
//     on the same files (TestPropServeFitParity pins it).
//
//   - Incremental re-fit: with a checkpoint directory configured, every
//     campaign runs with resilience checkpointing and resume, so a
//     campaign re-fits only the tasks whose series or options changed —
//     every other task is reused byte-identically. Adding a
//     configuration changes the series of every kernel it touches.
//
// All handlers honor context cancellation and a per-request deadline
// budget derived through resilience.Clock; fit campaigns run under the
// pipeline's stage timeouts and retry policy. The package is policed by
// the ctxflow, sendguard and wallclock analyzers: every goroutine is
// cancellable, every lock release is deferred, and no wall-clock value
// can reach a model or a serialized response.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"extradeep/internal/epoch"
	"extradeep/internal/pipeline"
	"extradeep/internal/resilience"
)

// Config assembles a Server. SpoolDir and Setup are required; everything
// else has serving defaults.
type Config struct {
	// SpoolDir is the root of the per-application upload spool: accepted
	// uploads are written verbatim to SpoolDir/<app>/<canonical name>.
	// The spool is the server's durable input state — a restarted server
	// rescans it, decodes it once into each application's profile set,
	// and re-fits every application found.
	SpoolDir string
	// CheckpointDir enables fit checkpointing: each application's
	// campaigns persist one record per completed fit task under
	// CheckpointDir/<app>. Empty disables checkpointing.
	CheckpointDir string
	// Resume reuses checkpointed fit tasks across campaigns and server
	// restarts: every task whose series and options are unchanged. A new
	// configuration changes the series of every kernel it touches, so
	// those kernels refit. Ignored without CheckpointDir.
	Resume bool
	// Setup derives the training-setup values (Section 2.3.1) per
	// configuration, exactly as the batch CLI's -benchmark/-batch flags
	// do. Required.
	Setup epoch.SetupFunc
	// Analyze configures the Section 3 questions answered per campaign.
	Analyze pipeline.AnalyzeOptions
	// Workers bounds each campaign's fit worker pool (0 = all cores).
	Workers int
	// MaxCampaigns bounds how many applications may fit concurrently
	// (default 2). The per-campaign fan-out is bounded separately by
	// Workers.
	MaxCampaigns int
	// RequestTimeout is the per-request deadline budget applied to every
	// handler (default 30s; negative disables).
	RequestTimeout time.Duration
	// CoalesceWindow is how long a fit loop waits after the first dirty
	// mark before starting a campaign, so a burst of uploads lands in one
	// re-fit (default 0: fit immediately).
	CoalesceWindow time.Duration
	// StageTimeout and Retries are the campaign's per-stage resilience
	// budget and retry policy, as in the batch CLI.
	StageTimeout time.Duration
	Retries      int
	// MaxUploadBytes bounds one upload request body (default 64 MiB).
	MaxUploadBytes int64
	// Clock paces request deadlines, coalescing windows and campaign
	// retries; nil means the wall clock. Tests substitute a FakeClock.
	Clock resilience.Clock
	// Observer receives per-campaign stage events; nil discards them.
	Observer pipeline.Observer
}

func (c Config) maxCampaigns() int {
	if c.MaxCampaigns <= 0 {
		return 2
	}
	return c.MaxCampaigns
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout == 0 {
		return 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return c.RequestTimeout
}

func (c Config) maxUploadBytes() int64 {
	if c.MaxUploadBytes <= 0 {
		return 64 << 20
	}
	return c.MaxUploadBytes
}

// Server is the modeling service: a sharded application store plus the
// fit scheduler. Create with New, wire into an http.Server via Handler,
// call Start to begin serving fits, and Drain on shutdown.
type Server struct {
	cfg   Config
	store *store
	clock resilience.Clock

	// life is the server's lifecycle context, recorded by Start: fit
	// loops derive from it, so cancelling it (SIGTERM in cmd/edserve)
	// stops scheduling and interrupts in-flight campaigns at the next
	// stage or fit-task boundary — checkpointed state stays resumable.
	life context.Context

	// fitSem bounds concurrent campaigns across applications.
	fitSem chan struct{}
	// fits counts live fit-loop goroutines, for Drain.
	fits sync.WaitGroup

	mu      sync.Mutex
	started bool
	closed  bool
}

// New validates the configuration and builds a stopped server: Handler
// works immediately (queries answer 503 until fits complete), Start
// begins fitting.
func New(cfg Config) (*Server, error) {
	if cfg.SpoolDir == "" {
		return nil, errors.New("serve: Config.SpoolDir is required")
	}
	if cfg.Setup == nil {
		return nil, errors.New("serve: Config.Setup is required")
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spool dir: %w", err)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.WallClock{}
	}
	return &Server{
		cfg:    cfg,
		store:  newStore(cfg.SpoolDir),
		clock:  clock,
		fitSem: make(chan struct{}, cfg.maxCampaigns()),
	}, nil
}

// Start records the lifecycle context, rescans the spool for
// applications left by a previous process, and schedules a fit for each
// — with Config.Resume and an intact checkpoint directory those fits
// reuse every unchanged task, so a restarted server converges to
// identical predictions cheaply. Start must be called exactly once.
func (s *Server) Start(ctx context.Context) error {
	if err := s.markStarted(ctx); err != nil {
		return err
	}
	apps, err := scanSpool(s.cfg.SpoolDir)
	if err != nil {
		return err
	}
	for _, sa := range apps {
		a := s.store.get(sa.name)
		a.adopt(sa)
		s.kick(a)
	}
	return nil
}

// markStarted records the lifecycle context exactly once.
func (s *Server) markStarted(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("serve: Start called twice")
	}
	s.started = true
	s.life = ctx
	return nil
}

// scannedApp is one application directory found in the spool.
type scannedApp struct {
	name   string
	format string
	files  int
	ids    map[identity]string
	// mixed reports a spool holding both formats — an unservable state
	// the upload path prevents but a hand-edited spool can produce.
	mixed bool
}

// scanSpool enumerates the applications spooled under root, in sorted
// order, recovering each one's format, file count and identity index.
func scanSpool(root string) ([]scannedApp, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning spool: %w", err)
	}
	var out []scannedApp
	for _, e := range entries {
		if !e.IsDir() || !validAppName(e.Name()) {
			continue
		}
		sa, err := scanApp(root, e.Name())
		if err != nil {
			return nil, err
		}
		if sa.files > 0 || sa.mixed {
			out = append(out, sa)
		}
	}
	return out, nil
}

// scanApp inventories one application's spool directory.
func scanApp(root, name string) (scannedApp, error) {
	dir := filepath.Join(root, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return scannedApp{}, fmt.Errorf("serve: scanning spool app %s: %w", name, err)
	}
	sa := scannedApp{name: name, ids: map[identity]string{}}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		format, ok := formatOf(e.Name())
		if !ok {
			continue
		}
		if sa.format == "" {
			sa.format = format
		} else if sa.format != format {
			sa.mixed = true
		}
		sa.files++
		if id, ok := identityFromName(e.Name()); ok {
			sa.ids[id] = e.Name()
		}
	}
	return sa, nil
}

// Settle blocks until the application has no fit work scheduled or
// running — every upload so far is covered by a completed (successful or
// failed) campaign — and returns the published snapshot plus the last
// campaign error, either of which may be nil. It exists for clients (and
// tests) that need a quiescence point instead of polling /status.
func (s *Server) Settle(ctx context.Context, app string) (*Snapshot, error) {
	a, ok := s.store.lookup(app)
	if !ok {
		return nil, fmt.Errorf("serve: unknown application %q", app)
	}
	for {
		// Fetch the wakeup channel before inspecting state: a transition
		// between the two closes the fetched channel, so no wakeup can be
		// missed.
		ch := a.changed()
		st := a.status()
		if !st.Pending {
			var lastErr error
			if st.Last != nil {
				lastErr = st.Last.err
			}
			return a.snapshot(), lastErr
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, resilience.CauseOrErr(ctx)
		}
	}
}

// Drain waits for every fit loop to finish (they observe the Start
// context, so cancel that first for a prompt drain) or for ctx to end,
// whichever comes first. After a clean drain every completed campaign's
// checkpoint state is fully persisted.
func (s *Server) Drain(ctx context.Context) error {
	s.setClosed()
	done := make(chan struct{})
	//edlint:ignore ctxflow waiter exits when the fit WaitGroup drains; fit loops themselves observe the Start context, and Drain's select below bounds the wait
	go func() {
		defer close(done)
		s.fits.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", resilience.CauseOrErr(ctx))
	}
}

// setClosed stops kick from spawning new fit loops.
func (s *Server) setClosed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}

// schedulable reports whether new fit loops may start, returning the
// lifecycle context they must run under.
func (s *Server) schedulable() (context.Context, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed || s.life == nil || s.life.Err() != nil {
		return nil, false
	}
	return s.life, true
}
