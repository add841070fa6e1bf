// Command benchmark is the repository's one benchmark: five single-flow
// closed-loop workloads over the datagram-iWARP stack, eight end-to-end
// metrics per workload, and — in a separate traced run — a per-layer ladder
// that rebuilds the stack one seam at a time. See README.md.
//
//	go run ./benchmark                       every workload, end to end
//	go run ./benchmark -trace 1              every workload, the traced run
//	go run ./benchmark -workload rd_send_1k  one workload (what the driver runs)
//	go run ./benchmark -selfcheck            the whole benchmark twice, compared
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/transport"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all, each in its own process)")
	seed := flag.Int64("seed", 1, "seed for payloads and simnet's loss RNG")
	seconds := flag.Float64("seconds", 20, "length of the measured part of a run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end run")
	out := flag.String("out", "benchmark/out", "directory for the traced run's span files")
	selfcheck := flag.Bool("selfcheck", false, "run everything twice and compare against the bounds")
	flag.Parse()

	var err error
	switch {
	case *selfcheck:
		err = selfCheck(*seed, *seconds, *out)
	case *name == "":
		for _, w := range workloads {
			if _, err = runChild(w.name, *seed, *seconds, *trace, *out, os.Stdout); err != nil {
				break
			}
		}
	default:
		err = runOne(*name, *seed, *seconds, *trace, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// environment is echoed before every result: what the numbers depend on
// besides the code.
func environment(seed int64, w workload) map[string]any {
	env := map[string]any{
		"seed": seed, "commit": "unknown", "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
	}
	env["host"], _ = os.Hostname()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	if w.udp {
		// The features the probe grants an endpoint opened the way the
		// workload opens its own.
		if ep, err := transport.ListenUDP("127.0.0.1", 0); err == nil {
			env["udp_batch"] = ep.BatchFeatures().String()
			ep.Close()
		}
	}
	return env
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed int64, seconds float64, trace int, out string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	runtime.GOMAXPROCS(1)
	env, _ := json.Marshal(environment(seed, w))
	fmt.Printf("env %s\n", env)
	var res *result
	var err error
	if trace != 0 {
		res, err = runTraced(w, seed, seconds, out, os.Stdout)
	} else {
		res, err = runEndToEnd(w, seed, seconds, os.Stdout)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// runChild runs one workload in a fresh process — the way the driver does,
// so that no run inherits another's heap or registry — and parses the
// result line. The child's output is copied to log.
func runChild(name string, seed int64, seconds float64, trace int, out string, log io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", out)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(&buf, log)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// selfCheck runs the whole benchmark — every workload, end to end and
// traced — twice, and prints for every workload × end-to-end
// metric both values, how far the second is worse than the first, and
// PASS/FAIL against the metric's bound. It also checks the ladder: the top
// rung's cumulative time within 10% of the untraced run's wall time per
// message, and no negative self time.
func selfCheck(seed int64, seconds float64, out string) error {
	type pass struct{ e2e, traced *result }
	var runs [2]map[string]pass
	runs[0], runs[1] = map[string]pass{}, map[string]pass{}
	for _, w := range workloads {
		// The two passes of a workload run next to each other, so that the
		// host's slow drift is common to the pair.
		for i := range runs {
			e, err := runChild(w.name, seed, seconds, 0, out, io.Discard)
			if err != nil {
				return err
			}
			t, err := runChild(w.name, seed, seconds, 1, out, io.Discard)
			if err != nil {
				return err
			}
			runs[i][w.name] = pass{e, t}
			fmt.Fprintf(os.Stderr, "selfcheck: %s pass %d done\n", w.name, i+1)
		}
	}
	failed := 0
	verdict := func(ok bool) string {
		if ok {
			return "PASS"
		}
		failed++
		return "FAIL"
	}
	fmt.Println("| workload | metric | run 1 | run 2 | worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := runs[0][w.name].e2e.Metrics[d.Name].Value, runs[1][w.name].e2e.Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.2f%% | %.1f%% | %s |\n",
				w.name, d.Name, a, b, 100*worse, 100*d.Bound, verdict(worse <= d.Bound))
		}
	}
	fmt.Println()
	fmt.Println("| workload | top rung cum ns/msg | untraced wall ns/msg | differs by | | negative self |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, w := range workloads {
		for i := range runs {
			e, t := runs[i][w.name].e2e.Metrics, runs[i][w.name].traced.Metrics
			// Wall time per delivered message follows from the goodput: valid
			// bytes per message over valid bytes per second.
			wall := float64(w.meanSize()) * e["delivered_frac"].Value / e["goodput_MBps"].Value * 1e3
			cum := t[w.top+".cum_ns_per_msg"].Value
			// A self figure is a difference of two measurements; it counts
			// as negative when it is below zero by more than 1% of what the
			// ladder has accumulated up to its rung.
			var neg []string
			for _, m := range []string{".self_ns_per_msg", ".self_allocs_per_msg", ".self_alloc_B_per_msg"} {
				acc := 0.0
				for _, l := range w.rungs() {
					self := t[l+m].Value
					acc += self
					if self < -0.01*max(acc, 1) {
						neg = append(neg, l+m)
					}
				}
			}
			diff := cum/wall - 1
			fmt.Printf("| %s | %.1f | %.1f | %+.2f%% | %s | %s |\n",
				w.name, cum, wall, 100*diff, verdict(diff < 0.10 && diff > -0.10), strings.Join(neg, " "))
			if len(neg) > 0 {
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", failed)
	}
	return nil
}
