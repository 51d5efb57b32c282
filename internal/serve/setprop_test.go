package serve

// TestPropServeSetMatchesSpool lives inside the package: it compares the
// application's cached profile set, which no route exposes, with a fresh
// ingest.LoadDir over the spool.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"extradeep/internal/faults"
	"extradeep/internal/ingest"
	"extradeep/internal/pipeline"
	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

const setApp = "imdb"

// setOp is one step of a generated upload sequence.
type setOp struct {
	// Kind is "upload" (the next batch of the campaign), "duplicate" (a
	// file already uploaded, refused with 409), "corrupt" (a damaged
	// file, refused with 422) or "restart" (a new server over the spool,
	// seeded first with a file damaged by Fault; the upload that follows
	// lands before the new server starts, so the set holds it before the
	// spool rebuild).
	Kind  string
	Fault faults.Kind
}

// String names the op and, where it damages a file, the fault.
func (o setOp) String() string {
	if o.Kind == "corrupt" || o.Kind == "restart" {
		return o.Kind + ":" + o.Fault.String()
	}
	return o.Kind
}

// setPlan is a generated upload sequence over one simulated campaign.
type setPlan struct {
	Seed  int64
	Reps  int
	Order int64
	Ops   []setOp
}

func genSetPlan() propcheck.Gen[setPlan] {
	kinds := faults.Kinds()
	return propcheck.Gen[setPlan]{
		Generate: func(r *propcheck.Rand) setPlan {
			p := setPlan{Seed: r.Int64Range(1, 1<<30), Reps: r.IntRange(1, 2), Order: r.Int64Range(1, 1<<30)}
			batches := r.IntRange(2, 3)
			restartAt := r.IntRange(1, batches)
			for b := 0; b < batches; b++ {
				if b == restartAt {
					p.Ops = append(p.Ops, setOp{Kind: "restart", Fault: kinds[r.Intn(len(kinds))]})
				}
				if r.Intn(3) == 0 {
					p.Ops = append(p.Ops, setOp{Kind: "corrupt", Fault: kinds[r.Intn(len(kinds)-1)]})
				}
				p.Ops = append(p.Ops, setOp{Kind: "upload"})
				if r.Intn(3) == 0 {
					p.Ops = append(p.Ops, setOp{Kind: "duplicate"})
				}
			}
			if restartAt == batches {
				p.Ops = append(p.Ops, setOp{Kind: "restart", Fault: kinds[r.Intn(len(kinds))]})
			}
			return p
		},
		Describe: func(p setPlan) string {
			return fmt.Sprintf("plan{seed=%d reps=%d order=%d ops=%v}", p.Seed, p.Reps, p.Order, p.Ops)
		},
	}
}

// simulate returns one weak-scaling imdb campaign as JSON documents in
// file-name order.
func simulate(tb testing.TB, ranks []int, reps int, seed int64) [][]byte {
	tb.Helper()
	b, err := engine.ByName(setApp)
	if err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for _, n := range ranks {
		cfg := engine.RunConfig{
			System: hardware.DEEP(), Strategy: parallel.DataParallel{},
			Ranks: n, WeakScaling: true, Seed: seed, SampleRanks: 1,
		}
		for rep := 1; rep <= reps; rep++ {
			ps, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				tb.Fatal(err)
			}
			for _, p := range ps {
				data, err := json.Marshal(p)
				if err != nil {
					tb.Fatal(err)
				}
				files[p.FileName()] = data
			}
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([][]byte, len(names))
	for i, name := range names {
		out[i] = files[name]
	}
	return out
}

// setServer is one server life over a shared spool.
type setServer struct {
	srv  *Server
	stop func()
}

// newSetServer builds a server over spool; start begins its fits.
func newSetServer(tb testing.TB, spool string) (s *setServer, start func()) {
	tb.Helper()
	b, err := engine.ByName(setApp)
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{
		SpoolDir: spool,
		Setup:    engine.SetupFunc(b, parallel.DataParallel{}, true),
		Analyze:  pipeline.AnalyzeOptions{CoresPerRank: 1, TopKernels: 10},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stop := func() {
		cancel()
		dctx, done := context.WithTimeout(context.Background(), 30*time.Second)
		defer done()
		_ = srv.Drain(dctx)
	}
	tb.Cleanup(stop)
	return &setServer{srv: srv, stop: stop}, func() {
		if err := srv.Start(ctx); err != nil {
			tb.Fatal(err)
		}
	}
}

// upload posts docs as one JSON upload batch and returns the status.
func (s *setServer) upload(tb testing.TB, docs ...[]byte) int {
	tb.Helper()
	req := uploadRequest{Format: "json"}
	for _, d := range docs {
		req.Profiles = append(req.Profiles, uploadFile{Content: string(d)})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/apps/"+setApp+"/profiles", bytes.NewReader(body)))
	return rec.Code
}

// check settles the application and compares its cached set with a
// fresh LoadDir over the spool: the reports (profiles, order, quarantine
// stage and text, gate warnings) must be deep-equal, and the last
// campaign must have published exactly that outcome.
func (s *setServer) check(tb testing.TB) error {
	tb.Helper()
	a, ok := s.srv.store.lookup(setApp)
	if !ok {
		// Only refused uploads ran: none may have created the
		// application or its spool.
		if _, err := os.Stat(filepath.Join(s.srv.cfg.SpoolDir, setApp)); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("no application but its spool exists (stat: %v)", err)
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := s.srv.Settle(ctx, setApp); ctx.Err() != nil {
		return fmt.Errorf("settle: %v", err)
	}
	opts := ingest.Options{Policy: ingest.Lenient}
	want, err := ingest.LoadDir(a.dir, "json", opts)
	if err != nil {
		return err
	}
	wantGate := want.Gate(opts)
	set, ok := a.cachedSet()
	if !ok {
		return errors.New("the profile set still awaits its rebuild after settle")
	}
	got, err := set.Report(opts)
	if err != nil {
		return err
	}
	gotGate := got.Gate(opts)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("set report differs from LoadDir over the spool:\n got %d profiles, quarantined %v, warnings %v\nwant %d profiles, quarantined %v, warnings %v",
			len(got.Profiles), got.Quarantined, got.Warnings, len(want.Profiles), want.Quarantined, want.Warnings)
	}
	if fmt.Sprint(gotGate) != fmt.Sprint(wantGate) {
		return fmt.Errorf("set gate %v, LoadDir gate %v", gotGate, wantGate)
	}

	st := a.status()
	switch {
	case st.Last == nil:
		return errors.New("settled without a campaign outcome")
	case wantGate != nil:
		if st.Last.err == nil || st.Last.err.Error() != wantGate.Error() {
			return fmt.Errorf("campaign outcome %v, want the gate refusal %v", st.Last.err, wantGate)
		}
	case st.Last.err != nil:
		return fmt.Errorf("campaign failed over a modelable spool: %v", st.Last.err)
	default:
		snap := a.snapshot()
		if snap == nil || snap.Generation != st.Last.gen {
			return fmt.Errorf("last campaign %d published no snapshot", st.Last.gen)
		}
		if snap.Profiles != len(want.Profiles) || snap.Quarantined != len(want.Quarantined) || !slices.Equal(snap.Warnings, want.Warnings) {
			return fmt.Errorf("snapshot ingest outcome (%d, %d, %v) differs from LoadDir (%d, %d, %v)",
				snap.Profiles, snap.Quarantined, snap.Warnings, len(want.Profiles), len(want.Quarantined), want.Warnings)
		}
	}
	return nil
}

// seedCorrupt writes a valid profile of a configuration the campaign
// lacks into the spool and damages it with kind (DuplicateRankRep keeps
// it and adds a colliding copy).
func seedCorrupt(tb testing.TB, spool string, seed int64, kind faults.Kind) {
	tb.Helper()
	doc := simulate(tb, []int{12}, 1, seed)[0]
	var p profile.Profile
	if err := json.Unmarshal(doc, &p); err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(spool, setApp, p.FileName())
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		tb.Fatal(err)
	}
	if _, err := faults.CorruptFile(path, kind); err != nil {
		tb.Fatal(err)
	}
}

// TestPropServeSetMatchesSpool: under random upload sequences — valid
// batches, refused duplicates, refused corruptions, and a restart over a
// spool seeded with a damaged file — the profile set campaigns ingest
// always reports exactly what ingest.LoadDir reports over the spool, and
// campaigns never modify the cached profiles.
func TestPropServeSetMatchesSpool(t *testing.T) {
	if testing.Short() {
		t.Skip("full fit campaigns are too slow for -short")
	}
	propcheck.CheckConfig(t, propcheck.Config{Iterations: 3}, genSetPlan(), func(plan setPlan) error {
		docs := simulate(t, []int{2, 4, 6, 8, 10}, plan.Reps, plan.Seed)
		propcheck.NewRand(plan.Order).Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		uploads := 0
		for _, op := range plan.Ops {
			if op.Kind == "upload" {
				uploads++
			}
		}
		per := (len(docs) + uploads - 1) / uploads

		spool := t.TempDir()
		s, start := newSetServer(t, spool)
		start()
		var sent [][]byte
		next := func() error {
			batch := docs[min(len(sent), len(docs)):min(len(sent)+per, len(docs))]
			if len(batch) == 0 {
				return nil
			}
			if code := s.upload(t, batch...); code != http.StatusAccepted {
				return fmt.Errorf("upload of %d files: status %d", len(batch), code)
			}
			sent = append(sent, batch...)
			return nil
		}
		for i := 0; i < len(plan.Ops); i++ {
			switch op := plan.Ops[i]; op.Kind {
			case "upload":
				if err := next(); err != nil {
					return fmt.Errorf("op %d: %w", i, err)
				}
			case "duplicate":
				if len(sent) == 0 {
					continue
				}
				if code := s.upload(t, sent[len(sent)-1]); code != http.StatusConflict {
					return fmt.Errorf("op %d: duplicate upload: status %d, want 409", i, code)
				}
			case "corrupt":
				victim := simulate(t, []int{16}, 1, plan.Seed)[0]
				damaged, err := faults.Apply(op.Fault, victim, "json")
				if err != nil {
					return err
				}
				if code := s.upload(t, damaged); code != http.StatusUnprocessableEntity {
					return fmt.Errorf("op %d: %v upload: status %d, want 422", i, op.Fault, code)
				}
			case "restart":
				s.stop()
				seedCorrupt(t, spool, plan.Seed, op.Fault)
				s, start = newSetServer(t, spool)
				if i+1 < len(plan.Ops) && plan.Ops[i+1].Kind == "upload" {
					i++
					if err := next(); err != nil {
						return fmt.Errorf("op %d before start: %w", i, err)
					}
				}
				start()
			}
			if err := s.check(t); err != nil {
				return fmt.Errorf("after op %d (%s): %w", i, plan.Ops[i].Kind, err)
			}
		}

		// Two more campaigns over the settled set leave every cached
		// profile as a fresh decode of the spool has it.
		a, ok := s.srv.store.lookup(setApp)
		if !ok {
			return errors.New("no application after the sequence")
		}
		for gen := int64(1000); gen < 1002; gen++ {
			s.srv.campaign(context.Background(), a, gen)
		}
		return s.check(t)
	})
}
