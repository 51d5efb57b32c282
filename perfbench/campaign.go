package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"extradeep/internal/profile"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
)

// workload is one seeded cifar10 campaign (JSON profiles, DEEP, data
// parallel, weak scaling) plus how the benchmark drives it.
type workload struct {
	name        string
	ranks       []int
	reps        int
	sampleRanks int
	// ckpt makes every batch iteration a cold run into a fresh checkpoint
	// store followed by a Resume rerun over that store.
	ckpt bool
	// baseConfigs is how many configurations the first serve upload
	// carries; each later upload carries one more configuration. 0 uploads
	// one repetition of every configuration at a time instead.
	baseConfigs int
	// Shares of the measuring time spent on batch iterations, on resume
	// probes (workloads without ckpt) and on serve lifecycles.
	batchShare, resumeShare, serveShare float64
}

func ranksStep(lo, hi, step int) []int {
	var out []int
	for r := lo; r <= hi; r += step {
		out = append(out, r)
	}
	return out
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:        "batch-cifar10",
		ranks:       ranksStep(2, 10, 2),
		reps:        5,
		sampleRanks: 4,
		batchShare:  0.45, resumeShare: 0.2, serveShare: 0.35,
	},
	{
		name:        "batch-wide-ckpt",
		ranks:       ranksStep(2, 64, 2),
		reps:        2,
		sampleRanks: 1,
		ckpt:        true,
		batchShare:  0.6, resumeShare: 0, serveShare: 0.4,
	},
	{
		name:        "serve-mixed",
		ranks:       ranksStep(2, 20, 2),
		reps:        3,
		sampleRanks: 4,
		baseConfigs: 5,
		batchShare:  0.25, resumeShare: 0.15, serveShare: 0.6,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// campaign is a generated profile set on disk and in memory.
type campaign struct {
	dir string
	app string
	// names are the file names, sorted; data holds their bytes.
	names []string
	data  map[string][]byte
	// configs lists each configuration's file names, in rank order;
	// reps lists each repetition's file names across configurations.
	configs [][]string
	reps    [][]string
	bytes   int64
	sha256  string
}

// generate writes the workload's campaign for seed into dir, the way
// cmd/edprofile does, and reads it back.
func generate(w workload, seed int64, dir string) (*campaign, error) {
	b, err := engine.ByName("cifar10")
	if err != nil {
		return nil, err
	}
	strat, err := parallel.ByName("data")
	if err != nil {
		return nil, err
	}
	store := &profile.Store{Dir: dir}
	c := &campaign{dir: dir, app: b.Name, data: map[string][]byte{}, reps: make([][]string, w.reps)}
	for _, r := range w.ranks {
		cfg := engine.RunConfig{
			System:      hardware.DEEP(),
			Strategy:    strat,
			Ranks:       r,
			WeakScaling: true,
			Granularity: engine.GranularityType,
			Seed:        seed,
			SampleRanks: w.sampleRanks,
		}
		var names []string
		for rep := 1; rep <= w.reps; rep++ {
			profiles, err := engine.Profile(b, cfg, rep, true)
			if err != nil {
				return nil, fmt.Errorf("profiling %d ranks rep %d: %w", r, rep, err)
			}
			for _, p := range profiles {
				if err := store.Write(p); err != nil {
					return nil, err
				}
				names = append(names, p.FileName())
				c.reps[rep-1] = append(c.reps[rep-1], p.FileName())
			}
		}
		c.configs = append(c.configs, names)
		c.names = append(c.names, names...)
	}
	sort.Strings(c.names)
	h := sha256.New()
	for _, name := range c.names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c.data[name] = data
		c.bytes += int64(len(data))
		h.Write([]byte(name + "\x00" + strconv.Itoa(len(data)) + "\x00"))
		h.Write(data)
	}
	c.sha256 = hex.EncodeToString(h.Sum(nil))
	return c, nil
}

// upload is one POST /v1/apps/{app}/profiles request body.
type upload struct {
	body []byte
	raw  int64 // profile bytes carried
}

// uploads builds the serve upload plan: one repetition of every
// configuration per upload, or baseConfigs configurations first and then
// one configuration per upload.
func (c *campaign) uploads(baseConfigs int) ([]upload, error) {
	groups := c.reps
	if baseConfigs > 0 {
		groups = nil
		var base []string
		for _, names := range c.configs[:baseConfigs] {
			base = append(base, names...)
		}
		groups = append(groups, base)
		groups = append(groups, c.configs[baseConfigs:]...)
	}
	type file struct {
		Content string `json:"content"`
	}
	type envelope struct {
		Format   string `json:"format"`
		Profiles []file `json:"profiles"`
	}
	out := make([]upload, 0, len(groups))
	for _, names := range groups {
		env := envelope{Format: "json", Profiles: make([]file, len(names))}
		var raw int64
		for i, name := range names {
			env.Profiles[i] = file{Content: string(c.data[name])}
			raw += int64(len(c.data[name]))
		}
		body, err := json.Marshal(env)
		if err != nil {
			return nil, err
		}
		out = append(out, upload{body: body, raw: raw})
	}
	return out, nil
}
