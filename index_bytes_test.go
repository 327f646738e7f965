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
// writes, keyed by "w<Workers>/<file>". The bytes depend on Options.Workers
// because rrset.Generate gives RR set i to worker i mod Workers (ROADMAP
// direction 8); a sampler or format change that moves them must update these
// constants on purpose, and nothing else may.
var goldenIndexSHA256 = map[string]string{
	"w1/rr":     "92bb986cc7026ad9ca53b104cd716cc8825a24a6b34276ed1425a06ab4ee0096",
	"w1/rr.s0":  "506bfccba5d005575f0e9dad9b5a0c210f6861d3de8eaf8a60b0a30d84151086",
	"w1/rr.s1":  "6ff47fa3129802fbd4a8e2c0d20df3fc4e0b0dda65de99afa09f51f7027e7e4c",
	"w1/irr":    "811c88e0fe3dec88d2187dae81a9aebca003fd1fc397710bdda967a760f0c323",
	"w1/irr.s0": "aa93ede6ee9768c7c1a358a2388381961ead13330da8b192aea062287c03108e",
	"w1/irr.s1": "f9061f8c7f78e031e3ad55dcde0a76bdd09ca842cda27958b33692e4600a989d",
	"w2/rr":     "7235998060e75a7dbf6544efe5e4f00c0a80adc75c5fb3281c8c04f183634746",
	"w2/rr.s0":  "e739a98a22cd9f7a3f40bbd5417c1c8b2816583f6cc133a817e7c384037eba83",
	"w2/rr.s1":  "b74ea2049be94c943ad9cd811f444336d3fe0090e466c6c242a42f609a258019",
	"w2/irr":    "f05125eb7dfa0ba8dfb5c695d8372e04d39ec3f28e13ec283c07c8731ea0ce38",
	"w2/irr.s0": "8542df4aded1c6020712dab299180fc1c555a7abbcd0e6aa32846059321d7c0d",
	"w2/irr.s1": "264b897494ab23a3577d2ab4f6f1d0b8d3ea5fc44d30a786be4e2fd443bb28c1",
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
	for _, workers := range []int{1, 2} {
		for name, path := range buildIndexFiles(t, workers) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			key := fmt.Sprintf("w%d/%s", workers, name)
			if got, want := hex.EncodeToString(sum[:]), goldenIndexSHA256[key]; got != want {
				t.Errorf("%s: sha256 %s, want %s", key, got, want)
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
// serving rests on: at equal Workers, every unit a keyword's shard file
// serves is byte-identical to the same unit of the unsharded file, so a query
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
