package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"kbtim"
)

// fixture is one finished set-up: the dataset and index files on disk, the
// engine that built them, and the running server processes.
type fixture struct {
	dir       string
	sz        sizing
	ds        *kbtim.Dataset
	eng       *kbtim.Engine // builder; also answers QueryWRIS / EvaluateSpread
	graphPath string
	profPath  string
	rrPath    string // "" when the workload serves no RR index
	irrPath   string
	universe  []int
	reports   map[string][]*kbtim.BuildReport // "rr" / "irr" → one per file
	indexMB   float64
	servers   []*proc // every kbtim-serve child; servers[0] is the one clients hit
}

func (f *fixture) target() string { return f.servers[0].url() }

func (sz sizing) options() kbtim.Options {
	return kbtim.Options{
		Epsilon: sz.Epsilon, K: sz.K, PartitionSize: sz.Delta,
		MaxThetaPerKeyword: sz.MaxTheta, Seed: sz.EngineSeed,
	}
}

// serveFlags are the engine parameters every serving process must share with
// the build.
func (sz sizing) serveFlags(graphPath, profPath string) []string {
	return []string{
		"-graph", graphPath, "-profiles", profPath,
		"-epsilon", strconv.FormatFloat(sz.Epsilon, 'g', -1, 64),
		"-K", strconv.Itoa(sz.K), "-max-theta", strconv.Itoa(sz.MaxTheta),
		"-seed", strconv.FormatUint(sz.EngineSeed, 10),
	}
}

// buildData generates the dataset and builds the workload's index files in
// dir: the paper's offline phase, through the public kbtim API only.
func buildData(wl *workload, sz sizing, dir string) (*fixture, error) {
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: sz.Users, AvgDegree: float64(sz.Degree),
		NumTopics: sz.Topics, Seed: sz.DatasetSeed,
	})
	if err != nil {
		return nil, err
	}
	f := &fixture{
		dir: dir, sz: sz, ds: ds,
		graphPath: filepath.Join(dir, "g.bin"), profPath: filepath.Join(dir, "p.bin"),
		reports: make(map[string][]*kbtim.BuildReport),
	}
	if err := kbtim.SaveDataset(ds, f.graphPath, f.profPath); err != nil {
		return nil, err
	}
	if f.eng, err = kbtim.NewEngine(ds, sz.options()); err != nil {
		return nil, err
	}
	f.universe = slices.Sorted(slices.Values(f.eng.IndexableTopics()))
	var bytes int64
	for _, kind := range []string{"rr", "irr"} {
		if !slices.Contains(wl.Strategies, kind) {
			continue
		}
		path := filepath.Join(dir, "a."+kind)
		reps, err := f.buildIndex(kind, path, wl.Shards)
		if err != nil {
			return nil, fmt.Errorf("build %s index: %w", kind, err)
		}
		f.reports[kind] = reps
		for _, r := range reps {
			bytes += r.Bytes
		}
		if kind == "rr" {
			f.rrPath = path
		} else {
			f.irrPath = path
		}
	}
	f.indexMB = float64(bytes) / 1e6
	return f, nil
}

// buildIndex writes one full index at path, or with shards > 1 the hash
// shard files path.s0 … path.s<shards-1>.
func (f *fixture) buildIndex(kind, path string, shards int) ([]*kbtim.BuildReport, error) {
	if shards > 1 {
		return f.eng.BuildShardIndexes(kind, shards, kbtim.ShardHash, func(i int) string {
			return kbtim.ShardIndexPath(path, i)
		})
	}
	build := f.eng.BuildIRRIndex
	if kind == "rr" {
		build = f.eng.BuildRRIndex
	}
	rep, err := build(path)
	if err != nil {
		return nil, err
	}
	return []*kbtim.BuildReport{rep}, nil
}

func cacheFlags(wl *workload) []string {
	var a []string
	if wl.CacheMB >= 0 {
		a = append(a, "-cache-mb", strconv.Itoa(wl.CacheMB))
	}
	if wl.DecodedMB >= 0 {
		a = append(a, "-decoded-cache-mb", strconv.Itoa(wl.DecodedMB))
	}
	return a
}

// startServers launches the workload's deployment shape and waits until
// every process answers /healthz.
func (f *fixture) startServers(ctx context.Context, wl *workload, ps *procs, bin string) error {
	base := f.sz.serveFlags(f.graphPath, f.profPath)
	indexFlags := func(suffix string) []string {
		var a []string
		if f.rrPath != "" {
			a = append(a, "-rr", f.rrPath+suffix)
		}
		if f.irrPath != "" {
			a = append(a, "-irr", f.irrPath+suffix)
		}
		return a
	}
	start := func(name string, args ...string) (*proc, error) {
		p, err := ps.start(ctx, name, bin, args...)
		if err == nil {
			f.servers = append(f.servers, p)
		}
		return p, err
	}
	switch wl.Shape {
	case shapeSingle:
		args := append(append(base, indexFlags("")...), cacheFlags(wl)...)
		_, err := start("serve", args...)
		return err
	case shapeSharded:
		args := append(append(base, indexFlags("")...), cacheFlags(wl)...)
		args = append(args, "-shards", strconv.Itoa(wl.Shards), "-shard-mode", "hash")
		_, err := start("serve-sharded", args...)
		return err
	case shapeRouter:
		addrs := make([]string, wl.Shards)
		for i := range addrs {
			args := append(append([]string(nil), base...), indexFlags(".s"+strconv.Itoa(i))...)
			p, err := start("backend"+strconv.Itoa(i), args...)
			if err != nil {
				return err
			}
			addrs[i] = p.url()
		}
		args := append([]string{"-router", "-backends", strings.Join(addrs, ","), "-shard-mode", "hash"}, cacheFlags(wl)...)
		if _, err := start("router", args...); err != nil {
			return err
		}
		last := len(f.servers) - 1
		f.servers[0], f.servers[last] = f.servers[last], f.servers[0]
		return nil
	}
	return fmt.Errorf("unknown shape %q", wl.Shape)
}

// setUp is one timed set-up: dataset, index build, process start, ready.
func setUp(ctx context.Context, wl *workload, sz sizing, dir string, ps *procs, bin string) (*fixture, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	f, err := buildData(wl, sz, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := f.startServers(ctx, wl, ps, bin); err != nil {
		f.tearDown(ps)
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// tearDown stops the fixture's servers, closes its engine and removes its
// files.
func (f *fixture) tearDown(ps *procs) {
	for _, p := range f.servers {
		ps.stop(p)
	}
	f.servers = nil
	if f.eng != nil {
		f.eng.Close()
	}
	os.RemoveAll(f.dir)
}
