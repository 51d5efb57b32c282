package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIReportMatchesBenchmark pins that the benchmark measures the
// program the CLI runs: cmd/extradeep over the batch-cifar10 campaign
// prints exactly the report the benchmark's batch run renders.
func TestCLIReportMatchesBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/extradeep")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "extradeep")
	build := exec.Command("go", "build", "-o", bin, "extradeep/cmd/extradeep")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/extradeep: %v\n%s", err, out)
	}
	w, err := workloadByName("batch-cifar10")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{w: w, seed: 1, work: tmp, ops: &tally{w: os.Stderr}}
	if _, err := e.setUp(); err != nil {
		t.Fatal(err)
	}
	out, err := e.batchRun(context.Background(), e.camp.dir, nil, false, nil, "")
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	cli := exec.Command(bin, "-profiles", e.camp.dir, "-benchmark", "cifar10")
	cli.Stdout, cli.Stderr = &stdout, &stderr
	if err := cli.Run(); err != nil {
		t.Fatalf("extradeep: %v\n%s", err, stderr.String())
	}
	want := fmt.Sprintf("loaded %d profiles from %s\naggregated %d application configurations\n%s",
		len(e.camp.names), e.camp.dir, len(w.ranks), out.report)
	if stdout.String() != want {
		t.Errorf("extradeep output differs from the benchmark's report\n got: %q\nwant: %q", stdout.String(), want)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the command reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, set := range []struct {
		name string
		json []metric
		cmd  []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.json) != len(set.cmd) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command reports %d", set.name, len(set.json), len(set.cmd))
			continue
		}
		for i, m := range set.json {
			if c := set.cmd[i]; m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, command %+v", set.name, i, m, c)
			}
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly, traced
// and untraced, and checks the result line.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.name, "-seed", "3", "-seconds", "0.1", "-trace", fmt.Sprint(trace), "-work", t.TempDir()}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: result %+v", w.name, trace, res)
			}
			for _, s := range specs {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s trace=%d: metric %s missing or mis-unit: %+v", w.name, trace, s.name, m)
				}
			}
		}
	}
}
