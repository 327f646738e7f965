// Command benchmark is the repository's perf ledger: it builds the real
// cmd/kbtim-serve, generates the dataset and indexes through the public kbtim
// API, drives /query over loopback HTTP, checks every reply against an
// in-process engine, and prints every metric by name with its unit.
//
//	benchmark/run.sh --workload hot_irr --seed 1 --seconds 14 --trace 0
//
// prints the end-to-end metrics of one workload; --trace 1 prints the
// per-layer metrics of a traced run and writes benchmark/out/trace-<w>.json;
// --aa N repeats the end-to-end suite N times and writes AA.md. README.md
// has the metric and workload tables.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed    = flag.Uint64("seed", 1, "seeds the query sequence only; dataset and indexes are fixed")
		seconds = flag.Float64("seconds", 14, "measured time of one run, split across the phases")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		aa      = flag.Int("aa", 0, "A/A study: run the end-to-end suite N >= 5 times with seeds seed..seed+N-1 and write AA.md")
		root    = flag.String("root", "..", "checkout root (run.sh starts the program in benchmark/)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if err := run(*name, *seed, *seconds, *trace, *aa, *root); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func run(name string, seed uint64, seconds float64, trace, aa int, root string) error {
	if seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return errors.New("-trace takes 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "kbtim-serve", "main.go")); err != nil {
		return fmt.Errorf("%s is not a kbtim checkout: %w", root, err)
	}
	var todo []*workload
	if name == "" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else {
		wl, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = append(todo, wl)
	}
	if aa > 0 {
		return runAA(root, todo, seed, seconds, aa)
	}

	buildDir := filepath.Join(root, ".bench_build")
	workDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	ps := newProcs()
	cleanup := func() {
		ps.stopAll()
		os.RemoveAll(workDir)
	}
	defer cleanup()
	// A signal must not leave servers or temp files behind.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "benchmark: %v: stopping servers and removing %s\n", sig, workDir)
			cleanup()
			os.Exit(130)
		case <-ctx.Done():
		}
	}()

	bin, err := buildServer(root, filepath.Join(buildDir, "bin"))
	if err != nil {
		return err
	}
	for _, wl := range todo {
		c := &runConfig{
			wl: wl, sz: refSizing, seed: seed, seconds: seconds,
			workDir: filepath.Join(workDir, wl.Name),
			outDir:  filepath.Join(root, "benchmark", "out"),
			bin:     bin, ps: ps,
		}
		var out *outcome
		if trace == 1 {
			out, err = runTraced(ctx, c)
		} else {
			out, err = runEndToEnd(ctx, c)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if err := report(root, c, trace, out); err != nil {
			return err
		}
		if !out.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", wl.Name, out.Failed, out.Attempted)
		}
	}
	return nil
}

// report prints the detail document (environment, workload constants,
// per-phase counts) and then, as the last line, the result object the
// benchmark contract names.
func report(root string, c *runConfig, trace int, out *outcome) error {
	detail := map[string]any{
		"workload": c.wl,
		"sizing":   c.sz,
		"seed":     c.seed,
		"seconds":  c.seconds,
		"trace":    trace,
		"env": map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"go":         runtime.Version(),
			"git_rev":    gitRev(root),
		},
		"detail": out.Detail,
	}
	pretty, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	line, err := json.Marshal(map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": out.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// gitRev names the commit under test; the driver's checkout is not a git
// repository, so "unknown" is an expected answer.
func gitRev(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
