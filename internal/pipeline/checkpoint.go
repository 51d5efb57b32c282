package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"extradeep/internal/measurement"
	"extradeep/internal/modeling"
	"extradeep/internal/pmnf"
	"extradeep/internal/resilience"
)

// Checkpoint/resume for the fit stage. Every fit task is keyed by a
// content hash of its complete inputs (metric, callpath, series samples,
// modeling options), and each completed task is written once, as its own
// record under that key. A resumed run reuses a stored record if and
// only if recomputing it would be byte-identical — any input or
// configuration change silently misses. Records are not tied to a
// campaign: a resumed run over the same store reuses every task whose
// series and options are unchanged, so different profile sets share one
// checkpoint directory and share their common tasks.

// ckptModel is the serialized form of one fitted model inside a task
// record, mirroring core's persisted model layout. JSON float64 encoding
// round-trips exactly, so a model decoded from a checkpoint predicts —
// and renders — byte-identically to the freshly fitted one.
type ckptModel struct {
	Function *pmnf.Function `json:"function"`
	SMAPE    float64        `json:"smape"`
	RSS      float64        `json:"rss"`
	// R2 is null for models whose data had no variance (R² undefined).
	R2             *float64            `json:"r2"`
	RelResidualStd float64             `json:"rel_residual_std"`
	Points         []measurement.Point `json:"points"`
	Actual         []float64           `json:"actual"`
}

// encodeModel serializes a fitted model for a checkpoint task record.
func encodeModel(m *modeling.Model) ([]byte, error) {
	cm := ckptModel{
		Function:       m.Function,
		SMAPE:          m.SMAPE,
		RSS:            m.RSS,
		RelResidualStd: m.RelResidualStd,
		Points:         m.Points,
		Actual:         m.Actual,
	}
	if !math.IsNaN(m.R2) {
		r2 := m.R2
		cm.R2 = &r2
	}
	return json.Marshal(cm)
}

// decodeModel is the inverse of encodeModel.
func decodeModel(data []byte) (*modeling.Model, error) {
	var cm ckptModel
	if err := json.Unmarshal(data, &cm); err != nil {
		return nil, fmt.Errorf("pipeline: decoding checkpointed model: %w", err)
	}
	if cm.Function == nil {
		return nil, errors.New("pipeline: checkpointed model without function")
	}
	r2 := math.NaN()
	if cm.R2 != nil {
		r2 = *cm.R2
	}
	return &modeling.Model{
		Function:       cm.Function,
		SMAPE:          cm.SMAPE,
		RSS:            cm.RSS,
		R2:             r2,
		RelResidualStd: cm.RelResidualStd,
		Points:         cm.Points,
		Actual:         cm.Actual,
	}, nil
}

// ckptSeries is the canonical serialization of a fit task's input series
// for key derivation: the measurement points and every repetition value,
// in sample order.
type ckptSeries struct {
	Points []measurement.Point `json:"points"`
	Reps   [][]float64         `json:"reps"`
}

// fitTaskKey derives the content key of one fit task.
func fitTaskKey(t fitTask, opts modeling.Options) (string, error) {
	cs := ckptSeries{}
	for _, sm := range t.series.Samples {
		cs.Points = append(cs.Points, sm.Point)
		cs.Reps = append(cs.Reps, sm.Reps)
	}
	seriesJSON, err := json.Marshal(cs)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding series for task key: %w", err)
	}
	optsJSON, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("pipeline: encoding options for task key: %w", err)
	}
	app := []byte{0}
	if t.app {
		app[0] = 1
	}
	return resilience.Key(
		[]byte("fit/v1"),
		[]byte(t.metric),
		[]byte(t.path),
		app,
		seriesJSON,
		optsJSON,
	), nil
}

// taskName renders the human-readable identity stored in task records.
func (t fitTask) name() string {
	kind := "kernel"
	if t.app {
		kind = "app"
	}
	return fmt.Sprintf("%s %s %s", kind, t.metric, t.path)
}

// ckptPlan is the fit stage's checkpoint context: the store and every
// task's content key. A plan without a store reuses nothing and records
// nothing.
type ckptPlan struct {
	store  *resilience.Store
	keys   []string // task index → content key
	resume bool
}

// newCkptPlan derives the content key of every task when a store is
// configured.
func newCkptPlan(store *resilience.Store, tasks []fitTask, opts modeling.Options, resume bool) (*ckptPlan, error) {
	plan := &ckptPlan{store: store, resume: resume}
	if store == nil {
		return plan, nil
	}
	plan.keys = make([]string, len(tasks))
	for i, t := range tasks {
		key, err := fitTaskKey(t, opts)
		if err != nil {
			return nil, err
		}
		plan.keys[i] = key
	}
	return plan, nil
}

// reuse returns the stored record for task i when resuming. Missing,
// damaged or foreign records are all a miss, and a miss means a refit.
func (p *ckptPlan) reuse(i int) (resilience.TaskRecord, bool) {
	if p.store == nil || !p.resume {
		return resilience.TaskRecord{}, false
	}
	payload, ok := p.store.Get(p.keys[i])
	if !ok {
		return resilience.TaskRecord{}, false
	}
	rec, err := resilience.DecodeRecord(payload)
	if err != nil || rec.Key != p.keys[i] {
		return resilience.TaskRecord{}, false
	}
	return rec, true
}

// record persists task i's completed record under its content key. Each
// fit worker writes only its own task's key, so concurrent records need
// no lock. Write failures are deliberately swallowed: checkpointing is an
// optimization, never a reason to fail a run that is otherwise
// succeeding.
func (p *ckptPlan) record(i int, rec resilience.TaskRecord) {
	if p.store == nil {
		return
	}
	rec.Key = p.keys[i]
	_ = p.store.Put(rec.Key, resilience.EncodeRecord(rec))
}
