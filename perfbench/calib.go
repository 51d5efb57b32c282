package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// refCalibration is how long calibrate's fixed work takes on the host
// the bounds in BENCHMARK.json were set on (2 vCPUs shared with other
// tenants). Every timing metric is reported in seconds of that host.
const refCalibration = 2.7e-3

// calibDoc is calibrate's fixed input: a JSON document shaped like a
// profile's event list (about 110 KB), independent of seed and workload.
var calibDoc = func() []byte {
	var b strings.Builder
	b.WriteString(`{"events":[`)
	for i := range 1000 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"kernel_%d","kind":%d,"callpath":"App->train->kernel_%d","start":%.15g,"duration":%.15g,"count":%d}`,
			i, i%9, i, float64(i)*0.0137, 0.001+float64(i%17)*0.00031, 1+i%5)
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}()

// calibrateTime is the median of three timings of decoding calibDoc into
// generic values. The work runs none of the repository's code, so a
// change to the program cannot move it, but it loads the host the way
// ingest does.
func calibrateTime() float64 {
	ts := make([]float64, 3)
	for i := range ts {
		t0 := time.Now()
		var v any
		if err := json.Unmarshal(calibDoc, &v); err != nil {
			panic(err) // calibDoc is a constant document
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// calibration calibrates now and returns a function that calibrates
// again and returns the factor turning seconds measured in between into
// seconds of the reference host: refCalibration over the mean of the two
// calibrations. Neighbours on a shared host slow memory-bound work by up
// to a third for seconds at a time; scaling each sample by calibrations
// taken around it removes most of that from the metrics. Every factor is
// kept for the run's record.
func (e *env) calibration() func() float64 {
	before := calibrateTime()
	return func() float64 {
		f := refCalibration / ((before + calibrateTime()) / 2)
		e.factors = append(e.factors, f)
		return f
	}
}
