// Command benchmark is the repository benchmark. It generates every input
// from --seed, runs one workload for --seconds, checks every result against
// local shadow solves, and prints its metrics by name and unit; the last line
// of standard output is one JSON object with the result.
//
//	bash benchmark/run.sh --workload solve|serve|fleet --seed N --seconds 40 --trace 0|1
//
// BENCHMARK.json lists solve and serve; fleet runs the same way but is left
// out of it, as harness.go explains. With --trace 0 it reports the
// end-to-end metrics. With --trace 1 it runs the workload twice, each for a
// share of the window with candidate pricing pinned to one worker: untraced,
// then with counting wrappers on the layers' public seams. It reports the
// per-layer metrics of the traced pass, and the tracing overhead as traced
// over untraced minus one, per end-to-end metric. The solve workload's
// traced run adds a traced fleet pass, which supplies the cluster layers.
// Only the traced run gives the serve workload's server a corpus store.
// fail_ratio, failed over attempted, is printed as its own line and carried
// by the result's failed and attempted fields rather than as a metric: on a
// correct tree it reads 0. BENCHMARK.json at the repository root lists the
// workloads and metrics; go test -run TestSpec -update regenerates it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runSeconds is the measured window BENCHMARK.json asks for.
const runSeconds = 40

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: solve, serve or fleet")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", runSeconds, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	window := time.Duration(*seconds) * time.Second

	fmt.Fprintf(stdout, "# benchmark workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host numcpu=%d gomaxprocs=%d go=%s callers=%d fanout=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), callers(), wl.fanout)
	fmt.Fprintf(stdout, "# why %s\n", wl.why)

	var res result
	if *trace == 0 {
		p, err := runPass(wl, *seed, window, 0, false, false)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printPass(stdout, p)
		values, samples := p.endToEndValues()
		res = result{Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "metric %-14s %12.6g %-5s %s\n", m.name, values[m.name], m.unit, samples[m.name])
			res.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		printNotes(stderr, p)
	} else {
		// Both passes pin candidate pricing to one worker, so spans nest on
		// one goroutine and self times can be taken, and the overhead is the
		// wrappers' alone. Both give the server a corpus store, so the
		// persist layer is measured; the untraced run has none, because
		// fsync latency on a shared disk varies between runs far past any
		// bound. A workload with a probe gives the probe's traced pass an
		// equal share of the window and takes its cluster layers.
		parts := time.Duration(2)
		if wl.probe != nil {
			parts = 3
		}
		untraced, err := runPass(wl, *seed, window/parts, 1, false, true)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		traced, err := runPass(wl, *seed, window/parts, 1, true, true)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		var probe *pass
		if wl.probe != nil {
			if probe, err = runPass(wl.probe, *seed, window/parts, 1, true, true); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			for k, v := range probe.layers {
				if strings.HasPrefix(k, "cluster.") {
					traced.layers[k] = v
				}
			}
			fmt.Fprintf(stdout, "# probe %s: cluster layers from its traced pass\n", wl.probe.name)
			printPass(stdout, probe)
		}
		printPass(stdout, traced)
		base, _ := untraced.endToEndValues()
		with, samples := traced.endToEndValues()
		for _, m := range endToEnd {
			fmt.Fprintf(stdout, "traced %-14s %12.6g %-5s untraced %12.6g (%s)\n", m.name, with[m.name], m.unit, base[m.name], samples[m.name])
			if base[m.name] != 0 {
				traced.layers["overhead."+m.name] = with[m.name]/base[m.name] - 1
			}
		}
		res = result{Attempted: untraced.attempted + traced.attempted, Failed: untraced.failed + traced.failed, Metrics: map[string]metricValue{}}
		if probe != nil {
			res.Attempted += probe.attempted
			res.Failed += probe.failed
		}
		for _, d := range perLayer {
			v := traced.layers[d.name]
			fmt.Fprintf(stdout, "layer %-32s %14.6g %-5s moves %s\n", d.name, v, d.unit, d.moves)
			res.Metrics[d.name] = metricValue{v, d.unit}
		}
		printNotes(stderr, untraced)
		printNotes(stderr, traced)
		if probe != nil {
			printNotes(stderr, probe)
		}
	}
	res.Correct = res.Failed == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "benchmark: metric %s is %v\n", k, m.Value)
			res.Correct = false
			res.Metrics[k] = metricValue{0, m.Unit}
		}
	}
	fmt.Fprintf(stdout, "fail_ratio %d/%d = %.6g\n", res.Failed, res.Attempted, float64(res.Failed)/float64(max(res.Attempted, 1)))
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}

// printPass writes the run header: corpus shapes, the measured workload
// properties a later claim may cite, and the per-round samples behind the
// medians (solve-set seconds, resident MB, closed-loop ops per second).
func printPass(w io.Writer, p *pass) {
	for _, name := range corpusNames {
		cp := p.corpora.get(name)
		fmt.Fprintf(w, "# corpus %-9s %d×%d entries=%d strategy=%v stripe_size=%d\n",
			name, cp.w.Consumers(), cp.w.Items(), cp.w.Entries(), cp.opts.Strategy, cp.opts.StripeSize)
	}
	keys := make([]string, 0, len(p.props))
	for k := range p.props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var props []string
	for _, k := range keys {
		props = append(props, fmt.Sprintf("%s=%.4g", k, p.props[k]))
	}
	fmt.Fprintf(w, "# property %s\n", strings.Join(props, " "))
	for _, r := range []struct {
		name string
		xs   []float64
	}{{"pure", p.pure}, {"mixed", p.mixed}, {"fim", p.fim}, {"rss", p.rss}, {"rate", p.rates}} {
		fmt.Fprintf(w, "# rounds %-5s %.4g\n", r.name, r.xs)
	}
}

func printNotes(w io.Writer, p *pass) {
	for _, n := range p.notes {
		fmt.Fprintln(w, "benchmark: failure:", n)
	}
}
