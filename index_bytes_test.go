package kbtim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
)

// goldenIndexSHA256 pins the bytes of every index file buildIndexFiles
// writes, keyed by file name. rrset.Generate draws RR set i from a stream
// seeded by the set's index, so the bytes depend on neither Options.Workers
// nor the host; a sampler or format change that moves them must update these
// constants on purpose, and nothing else may.
var goldenIndexSHA256 = map[string]string{
	"rr":     "26d4b46977162e364d00d2a964909b261f9ed988e417bfc4495d487f994b10d0",
	"rr.s0":  "f269f8984d4071503b9b55ea9b33e802efaa07f942ee2ce2e9bc6ff5ad15f091",
	"rr.s1":  "f1af378d78106eecb4594086703357e606e4a0d8a832cd08e85f86f62abb2e05",
	"irr":    "89c0d572b2d585335cc390b21979b8990356f1b6eb352b8a077ab65f5b66af87",
	"irr.s0": "28a84f987e8ebf136ff1176d8ae5a04494b5dda5bec2406a8683d756e3a0a06d",
	"irr.s1": "174739ff81a1d72b71b9cc5e065eb831bc74b61c19caa86a7e4f1eb79c1f5b59",
}

// buildIndexFiles builds, at the given sampling Workers over one fixed small
// dataset, the RR and IRR index unsharded ("rr", "irr") and as a 2-shard hash
// build ("rr.s0", "rr.s1", ...), and returns each file's path by that name.
func buildIndexFiles(t *testing.T, workers int) map[string]string {
	t.Helper()
	ds, err := GenerateDataset(DatasetSpec{
		Kind: TwitterLike, NumUsers: 300, AvgDegree: 6, NumTopics: 8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds, Options{
		Epsilon: 0.5, K: 5, MaxThetaPerKeyword: 500, PartitionSize: 5, Seed: 3, Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	files := map[string]string{}
	for _, kind := range []string{"rr", "irr"} {
		full := filepath.Join(dir, "ads."+kind)
		build := eng.BuildRRIndex
		if kind == "irr" {
			build = eng.BuildIRRIndex
		}
		if _, err := build(full); err != nil {
			t.Fatal(err)
		}
		files[kind] = full
		reps, err := eng.BuildShardIndexes(kind, 2, ShardHash, func(i int) string { return ShardIndexPath(full, i) })
		if err != nil {
			t.Fatal(err)
		}
		for i, rep := range reps {
			if rep == nil {
				t.Fatalf("%s shard %d owns no keyword", kind, i)
			}
			files[fmt.Sprintf("%s.s%d", kind, i)] = ShardIndexPath(full, i)
		}
	}
	return files
}

func TestIndexBytesPinned(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3} {
		for name, path := range buildIndexFiles(t, workers) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got, want := hex.EncodeToString(sum[:]), goldenIndexSHA256[name]; got != want {
				t.Errorf("Workers %d, %s: sha256 %s, want %s", workers, name, got, want)
			}
		}
	}
}

// artifactSource is what both index kinds serve units through.
type artifactSource interface {
	ArtifactBytes(unit string, topic int, aux int64) ([]byte, error)
	Keywords() []int
}

// unitRef names one unit of a keyword: the unit and its aux argument.
type unitRef struct {
	unit string
	aux  int64
}

// keywordUnits lists every unit a keyword of the opened index serves: for RR
// the sets region at θ_w and the inverted region, for IRR the IP table and
// each partition block.
func keywordUnits(src artifactSource, w int) []unitRef {
	switch idx := src.(type) {
	case *rrindex.Index:
		return []unitRef{{rrindex.UnitSets, idx.Dir(w).ThetaW}, {rrindex.UnitInv, 0}}
	case *irrindex.Index:
		out := []unitRef{{irrindex.UnitIP, 0}}
		for j := range idx.Dir(w).Partitions {
			out = append(out, unitRef{irrindex.UnitPart, int64(j)})
		}
		return out
	}
	panic("keywordUnits: unknown index kind")
}

// TestShardFilesCarryFullKeywordBytes checks the property keyword-sharded
// serving rests on: every unit a keyword's shard file serves is
// byte-identical to the same unit of the unsharded file, so a query
// answers the same whichever file holds the keyword.
func TestShardFilesCarryFullKeywordBytes(t *testing.T) {
	files := buildIndexFiles(t, 1)
	open := func(kind, name string) artifactSource {
		f, err := diskio.Open(files[name], diskio.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		if kind == "rr" {
			idx, err := rrindex.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}
		idx, err := irrindex.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	for _, kind := range []string{"rr", "irr"} {
		full := open(kind, kind)
		covered, units := 0, 0
		for s := 0; s < 2; s++ {
			shard := open(kind, fmt.Sprintf("%s.s%d", kind, s))
			for _, w := range shard.Keywords() {
				covered++
				for _, u := range keywordUnits(full, w) {
					want, err := full.ArtifactBytes(u.unit, w, u.aux)
					if err != nil {
						t.Fatal(err)
					}
					got, err := shard.ArtifactBytes(u.unit, w, u.aux)
					if err != nil {
						t.Fatalf("%s shard %d keyword %d %s/%d: %v", kind, s, w, u.unit, u.aux, err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s shard %d keyword %d %s/%d: %d bytes differ from the full file's %d", kind, s, w, u.unit, u.aux, len(got), len(want))
					}
					units++
				}
			}
		}
		if covered != len(full.Keywords()) {
			t.Errorf("%s: shards hold %d keywords, the full file %d", kind, covered, len(full.Keywords()))
		}
		t.Logf("%s: %d units of %d keywords equal", kind, units, covered)
	}
}
