package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into the system, recorded from the benchmark's
// side of a public entry point. Parent 0 marks a root; every span of one
// run or lifecycle descends from the same root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Alloc is the process's heap allocation during the span; it is
	// meaningful only for spans nothing else runs beside (batch calls).
	Alloc uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, which is how untraced runs
// use the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  map[int]uint64 // span ID → allocation counter at begin
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[int]uint64{}}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	alloc := allocBytes()
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	t.open[id] = alloc
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	alloc := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Alloc = alloc - t.open[id]
	delete(t.open, id)
}

// add records a span whose bounds were measured elsewhere (the pipeline's
// own stage timings inside one public call).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for the tree under root, each layer's self time: a
// span's duration minus the time its children cover, summed per layer.
// A span's layer is its name up to the first dot; the root's own self
// time is the benchmark's glue between calls and belongs to no layer.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	out := map[string]float64{}
	var walk func(id int)
	walk = func(id int) {
		s := t.spans[id-1]
		self := s.End - s.Start
		for _, c := range children[id] {
			cs := t.spans[c-1]
			self -= cs.End - cs.Start
			walk(c)
		}
		if id != root {
			layer, _, _ := strings.Cut(s.Name, ".")
			out[layer] += self
		}
	}
	walk(root)
	return out
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// dirStats counts the regular files under dir and their bytes.
func dirStats(dir string) (files int, bytes int64) {
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			files++
			bytes += info.Size()
		}
		return nil
	})
	return files, bytes
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; +Inf samples (failed requests) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
