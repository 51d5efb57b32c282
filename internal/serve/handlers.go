package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"extradeep/internal/analysis"
	"extradeep/internal/epoch"
	"extradeep/internal/ingest"
	"extradeep/internal/mathutil"
	"extradeep/internal/profile"
	"extradeep/internal/resilience"
)

// Handler returns the service's HTTP routing table. It is valid before
// Start (queries answer 503 not_ready until the first campaign
// publishes) and safe for concurrent use.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", s.deadline(s.handleHealth))
	mux.HandleFunc("GET /v1/apps", s.deadline(s.handleApps))
	mux.HandleFunc("GET /v1/apps/{app}/status", s.deadline(s.handleStatus))
	mux.HandleFunc("POST /v1/apps/{app}/profiles", s.deadline(s.handleUpload))
	mux.HandleFunc("GET /v1/apps/{app}/models", s.deadline(s.handleModels))
	mux.HandleFunc("GET /v1/apps/{app}/report", s.deadline(s.handleReport))
	mux.HandleFunc("GET /v1/apps/{app}/predict", s.deadline(s.handlePredict))
	mux.HandleFunc("GET /v1/apps/{app}/speedup", s.deadline(s.handleSpeedup))
	mux.HandleFunc("GET /v1/apps/{app}/efficiency", s.deadline(s.handleEfficiency))
	mux.HandleFunc("GET /v1/apps/{app}/cost", s.deadline(s.handleCost))
	// Unknown paths answer in the standard error envelope instead of the
	// mux's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "unknown route "+r.URL.Path, nil)
	})
	return mux
}

// deadline wraps a handler with the per-request deadline budget, derived
// through the configured clock so tests control it deterministically. A
// request whose context ends mid-handler answers 503 from whichever
// boundary check sees it first.
func (s *Server) deadline(h http.HandlerFunc) http.HandlerFunc {
	d := s.cfg.requestTimeout()
	if d <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.clock.WithTimeout(r.Context(), d)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// expired reports (and answers) a request whose context already ended —
// the deadline budget ran out or the client went away.
func expired(w http.ResponseWriter, r *http.Request) bool {
	if err := resilience.CauseOrErr(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "deadline", "request abandoned: "+err.Error(), nil)
		return true
	}
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Apps: len(s.store.names())})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	resp := appsResponse{Apps: []appInfo{}}
	for _, name := range s.store.names() {
		if a, ok := s.store.lookup(name); ok {
			resp.Apps = append(resp.Apps, infoOf(a))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// infoOf condenses one application's state for listings.
func infoOf(a *appState) appInfo {
	st := a.status()
	info := appInfo{App: st.Name, Format: st.Format, Files: st.Files, Pending: st.Pending}
	if snap := a.snapshot(); snap != nil {
		info.Ready = true
		info.Generation = snap.Generation
		info.Degraded = snap.Degraded
	}
	if st.Last != nil && st.Last.err != nil {
		info.LastError = st.Last.err.Error()
	}
	if st.Mixed {
		info.LastError = errMixedSpool.Error()
	}
	return info
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	a, ok := s.app(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, infoOf(a))
}

// app resolves the {app} path segment to existing state, answering the
// 400/404 itself when it cannot.
func (s *Server) app(w http.ResponseWriter, r *http.Request) (*appState, bool) {
	name := r.PathValue("app")
	if !validAppName(name) {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid application name "+strconv.Quote(name), nil)
		return nil, false
	}
	a, ok := s.store.lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown_app", "no profiles uploaded for application "+strconv.Quote(name), nil)
		return nil, false
	}
	return a, true
}

// upload is one validated file of an upload batch, ready to spool.
type upload struct {
	name string
	id   identity
	data []byte
	p    *profile.Profile
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	name := r.PathValue("app")
	if !validAppName(name) {
		writeError(w, http.StatusBadRequest, "bad_request", "invalid application name "+strconv.Quote(name), nil)
		return
	}
	req, err := decodeUploadRequest(r, s.cfg.maxUploadBytes())
	if err != nil {
		writeAPIError(w, err)
		return
	}

	// Serialize uploads per application: decoding (with the app's one
	// Decoder), admission (conflict checks) and the spool writes must be
	// one atomic step or two racing uploads could both admit the same
	// identity. A first upload decodes before its application exists, so
	// a refused one creates none.
	a, known := s.store.lookup(name)
	dec := new(profile.Decoder)
	if known {
		a.upMu.Lock()
		defer a.upMu.Unlock()
		dec = a.decoder(dec)
	}
	batch, err := validateBatch(dec, name, req)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	if !known {
		a = s.store.get(name)
		a.upMu.Lock()
		defer a.upMu.Unlock()
		a.decoder(dec)
	}
	if err := a.admit(req.Format, batch); err != nil {
		writeAPIError(w, err)
		return
	}
	if err := spool(a.dir, batch); err != nil {
		writeAPIError(w, err)
		return
	}
	accepted := make([]string, 0, len(batch))
	for _, u := range batch {
		accepted = append(accepted, u.name)
	}
	a.commit(req.Format, batch)
	s.kick(a)

	st := a.status()
	writeJSON(w, http.StatusAccepted, uploadResponse{
		App:          name,
		Accepted:     accepted,
		SpooledFiles: st.Files,
		Refit:        st.Pending,
	})
}

// decodeUploadRequest reads and shape-checks the upload envelope.
func decodeUploadRequest(r *http.Request, limit int64) (*uploadRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				message: fmt.Sprintf("request body exceeds the %d-byte upload limit", tooBig.Limit)}
		}
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "reading request body: " + err.Error()}
	}
	var req uploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "malformed upload envelope: " + err.Error()}
	}
	if req.Format != "json" && req.Format != "csv" {
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request",
			message: fmt.Sprintf("unknown profile format %q (have json, csv)", req.Format)}
	}
	if len(req.Profiles) == 0 {
		return nil, &apiError{status: http.StatusBadRequest, code: "bad_request", message: "upload envelope contains no profiles"}
	}
	return &req, nil
}

// validateBatch runs every uploaded document through the exact
// read/decode/validate classification directory ingestion uses
// (ingest.Decode, with the application's Decoder) and derives canonical
// spool names. The batch is atomic: any failing file refuses the whole
// upload with 422 and per-file stage detail, and the store stays
// unchanged.
func validateBatch(dec *profile.Decoder, app string, req *uploadRequest) ([]upload, error) {
	var batch []upload
	var rejected []fileDetail
	for i, f := range req.Profiles {
		// One copy serves both the decode and the spool: no decoded field
		// aliases its input.
		data := []byte(f.Content)
		p, stage, err := ingest.Decode(dec, data, req.Format)
		if err != nil {
			rejected = append(rejected, fileDetail{Index: i, Stage: stage.String(), Reason: err.Error()})
			continue
		}
		if p.App != app {
			return nil, &apiError{status: http.StatusBadRequest, code: "app_mismatch",
				message: fmt.Sprintf("profile %d declares application %q, uploaded to %q", i, p.App, app)}
		}
		name := p.FileName()
		if req.Format == "csv" {
			name = strings.TrimSuffix(name, ".json") + ".csv"
		}
		batch = append(batch, upload{
			name: name,
			id:   identity{point: p.Point().Key(), rank: p.Rank, rep: p.Rep},
			data: data,
			p:    p,
		})
	}
	if len(rejected) > 0 {
		return nil, &apiError{status: http.StatusUnprocessableEntity, code: "quarantined",
			message: fmt.Sprintf("%d of %d uploaded profile(s) failed validation; nothing was spooled", len(rejected), len(req.Profiles)),
			files:   rejected}
	}
	return batch, nil
}

// spool writes an admitted batch under the application's spool
// directory. Each file lands via a temporary ".part" name plus rename,
// so a batch run reading the directory concurrently never sees a
// half-written profile; on any failure the already-written files of this
// batch are removed, keeping the upload atomic.
func spool(dir string, batch []upload) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating spool directory: %w", err)
	}
	var written []string
	undo := func() {
		for _, p := range written {
			_ = os.Remove(p)
		}
	}
	for _, u := range batch {
		path := filepath.Join(dir, u.name)
		tmp := path + ".part"
		if err := os.WriteFile(tmp, u.data, 0o644); err != nil {
			undo()
			return fmt.Errorf("spooling %s: %w", u.name, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			_ = os.Remove(tmp)
			undo()
			return fmt.Errorf("spooling %s: %w", u.name, err)
		}
		written = append(written, path)
	}
	return nil
}

// snapshotFor resolves the application and its published snapshot,
// answering the error (404, 503 with last-failure detail, 409 for a
// mixed spool) itself when there is nothing to query.
func (s *Server) snapshotFor(w http.ResponseWriter, r *http.Request) (*appState, *Snapshot, bool) {
	a, ok := s.app(w, r)
	if !ok {
		return nil, nil, false
	}
	snap := a.snapshot()
	if snap == nil {
		st := a.status()
		if st.Mixed {
			writeAPIError(w, errMixedSpool)
			return nil, nil, false
		}
		msg := "no fitted models yet for application " + strconv.Quote(st.Name)
		if st.Pending {
			msg += " (fit campaign in progress)"
		} else if st.Last != nil && st.Last.err != nil {
			msg += ": last campaign failed: " + st.Last.err.Error()
		}
		writeError(w, http.StatusServiceUnavailable, "not_ready", msg, nil)
		return nil, nil, false
	}
	return a, snap, true
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Extradeep-Generation", strconv.FormatInt(snap.Generation, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.ModelsJSON)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Extradeep-Generation", strconv.FormatInt(snap.Generation, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, snap.Report)
}

// queryX parses the x query parameter (the rank count the Section 3
// equations are asked at).
func queryX(w http.ResponseWriter, r *http.Request) (float64, bool) {
	raw := r.URL.Query().Get("x")
	if raw == "" {
		writeError(w, http.StatusBadRequest, "bad_request", "missing query parameter x (rank count)", nil)
		return 0, false
	}
	x, err := strconv.ParseFloat(raw, 64)
	if err != nil || x <= 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "query parameter x must be a positive number, got "+strconv.Quote(raw), nil)
		return 0, false
	}
	return x, true
}

// extrapolated reports x outside the snapshot's measured range.
func (snap *Snapshot) extrapolated(x float64) bool {
	return len(snap.Xs) > 0 && (x < snap.Xs[0] || x > snap.Xs[len(snap.Xs)-1])
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	m := snap.Models.App[epoch.AppPath]
	lo, hi := m.PredictInterval(0.95, x)
	writeJSON(w, http.StatusOK, predictResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Seconds:      m.Predict(x),
		Lo:           lo,
		Hi:           hi,
		CILevel:      0.95,
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

// speedupAt computes the Eq. 11 achieved speedup of x against the
// measured baseline x₁ = Xs[0]: Δa = (T₁−T(x))/(T₁/100).
func (snap *Snapshot) speedupAt(x float64) (x1, achieved float64, err error) {
	if len(snap.Xs) == 0 {
		return 0, 0, errors.New("snapshot has no measured configurations")
	}
	m := snap.Models.App[epoch.AppPath]
	x1 = snap.Xs[0]
	t1 := m.Predict(x1)
	if t1 == 0 {
		return 0, 0, errors.New("baseline runtime is zero")
	}
	return x1, (t1 - m.Predict(x)) / (t1 / 100), nil
}

func (s *Server) handleSpeedup(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	x1, achieved, err := snap.speedupAt(x)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, speedupResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Baseline:     x1,
		Achieved:     achieved,
		Theoretical:  analysis.TheoreticalSpeedup(x1, x),
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

func (s *Server) handleEfficiency(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	x1, achieved, err := snap.speedupAt(x)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	// Eq. 13: ε = Δa/Δt; the baseline itself has efficiency 1 (Δt = 0
	// there, so the ratio is taken only away from the baseline).
	eff := 1.0
	if !mathutil.AlmostEqual(x, x1, 1e-12) {
		eff = achieved / analysis.TheoreticalSpeedup(x1, x)
	}
	writeJSON(w, http.StatusOK, efficiencyResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		Baseline:     x1,
		Efficiency:   eff,
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	if expired(w, r) {
		return
	}
	name := r.PathValue("app")
	_, snap, ok := s.snapshotFor(w, r)
	if !ok {
		return
	}
	x, ok := queryX(w, r)
	if !ok {
		return
	}
	rho := s.cfg.Analyze.CoresPerRank
	if raw := r.URL.Query().Get("cores_per_rank"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad_request", "query parameter cores_per_rank must be a positive number, got "+strconv.Quote(raw), nil)
			return
		}
		rho = v
	}
	m := snap.Models.App[epoch.AppPath]
	cm := analysis.CostModel{Runtime: m.Function, CoresPerRank: rho}
	writeJSON(w, http.StatusOK, costResponse{
		App:          name,
		Generation:   snap.Generation,
		X:            x,
		CoresPerRank: rho,
		Seconds:      m.Predict(x),
		CoreHours:    cm.CoreHours(x),
		Extrapolated: snap.extrapolated(x),
		Degraded:     snap.Degraded,
	})
}
