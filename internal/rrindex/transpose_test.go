package rrindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/coverage"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/prop"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// invRegion is the oracle of this file: keyword d's on-disk inverted region
// L_w (Algorithm 1's output), walked list by list and checked as strictly as
// the query path used to check it — vertex in range and ascending, IDs below
// θ_w, exactly NumInvLists lists, no trailing bytes. No query reads the
// region any more, so this walker is what keeps it verified.
func invRegion(t *testing.T, idx *Index, d *KeywordDir) [][]int32 {
	t.Helper()
	buf, err := idx.ArtifactBytes(UnitInv, d.TopicID, 0)
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]int32, idx.hdr.NumVertices)
	pos, prev := 0, -1
	for i := 0; i < d.NumInvLists; i++ {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 || v >= uint64(idx.hdr.NumVertices) || int(v) <= prev {
			t.Fatalf("topic %d: bad inverted-list vertex %d after %d", d.TopicID, v, prev)
		}
		pos, prev = pos+n, int(v)
		ids, n, err := idx.hdr.Compression.DecodeList(nil, buf[pos:])
		if err != nil {
			t.Fatalf("topic %d vertex %d: %v", d.TopicID, v, err)
		}
		pos += n
		for _, id := range ids {
			if int64(id) >= d.ThetaW {
				t.Fatalf("topic %d vertex %d: set ID %d ≥ θ_w %d", d.TopicID, v, id, d.ThetaW)
			}
			lists[v] = append(lists[v], int32(id))
		}
	}
	if pos != len(buf) {
		t.Fatalf("topic %d: inverted region has %d trailing bytes", d.TopicID, len(buf)-pos)
	}
	return lists
}

// trimmed returns region's lists cut to IDs < t and shifted by offset — what
// Algorithm 2's "load L_w" contributes to a query that allots keyword w t sets
// starting at global ID offset.
func trimmed(region [][]int32, t int, offset int32) [][]int32 {
	out := make([][]int32, len(region))
	for v, list := range region {
		for _, id := range list {
			if id >= int32(t) {
				break
			}
			out[v] = append(out[v], id+offset)
		}
	}
	return out
}

func sameLists(a, b [][]int32) bool {
	for v := range a {
		if len(a[v]) != len(b[v]) || (len(a[v]) > 0 && !reflect.DeepEqual(a[v], b[v])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestTransposeMatchesInvertedRegion pins the claim the query path rests on:
// the coverage part NewPart inverts from a keyword's first t sets lists, per
// vertex, exactly the file's L_w trimmed to IDs < t (local IDs) — for every
// keyword, at prefix lengths on both sides of a checkpoint, on both
// compressions, through the pooled cache-free decode and the shared
// decoded-cache one; and a query spanning two shard files answers exactly
// what greedy over the trimmed on-disk regions answers.
func TestTransposeMatchesInvertedRegion(t *testing.T) {
	const topics = 6
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 300, AvgDegree: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gen.Profiles(gen.DefaultProfilesConfig(300, topics, 21))
	if err != nil {
		t.Fatal(err)
	}
	cfg := wris.Config{Epsilon: 0.4, K: 10, PilotSets: 600, MaxThetaPerKeyword: 3000, Seed: 5, Workers: 2}
	ctx := context.Background()
	for _, comp := range []codec.Compression{codec.Delta, codec.Raw} {
		open := func(only []int, cache bool) (*Index, *diskio.Mem) {
			var buf bytes.Buffer
			if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{Compression: comp, Topics: only}); err != nil {
				t.Fatal(err)
			}
			mem := diskio.NewMem(buf.Bytes(), nil)
			idx, err := Open(mem)
			if err != nil {
				t.Fatal(err)
			}
			if cache {
				idx.SetDecodedCache(objcache.New(32 << 20))
			}
			return idx, mem
		}
		plain, plainMem := open(nil, false)
		cached, cachedMem := open(nil, true)
		kws := plain.Keywords()
		sort.Ints(kws)
		if len(kws) != topics {
			t.Fatalf("%s: %d keywords indexed, want %d", comp, len(kws), topics)
		}
		regions := map[int][][]int32{}
		for _, w := range kws {
			d := plain.Dir(w)
			regions[w] = invRegion(t, plain, d)
			theta := int(d.ThetaW)
			if theta <= checkpointInterval+1 {
				t.Fatalf("%s topic %d: θ_w = %d does not straddle a checkpoint; grow the fixture", comp, w, theta)
			}
			for _, tt := range []int{1, checkpointInterval - 1, checkpointInterval, checkpointInterval + 1, theta / 2, theta} {
				want := trimmed(regions[w], tt, 0)
				for _, arm := range []struct {
					name string
					idx  *Index
					r    diskio.Segmented
				}{{"cache-free", plain, plainMem}, {"decoded-cache", cached, cachedMem}} {
					var dec indexfile.DecCounters
					b, err := arm.idx.setsPrefix(ctx, arm.r, arm.idx.Dir(w), tt, &dec)
					if err != nil {
						t.Fatal(err)
					}
					part, err := coverage.NewPart(plain.hdr.NumVertices, b.Off, b.Flat)
					if err != nil {
						t.Fatal(err)
					}
					got := make([][]int32, plain.hdr.NumVertices)
					for v := range got {
						got[v] = part.List(v)
					}
					if b.Len() != tt || part.Len() != tt || !sameLists(got, want) {
						t.Errorf("%s %s topic %d t=%d: part of the prefix (%d sets) differs from the inverted region trimmed to t", comp, arm.name, w, tt, b.Len())
					}
					part.Release()
					if arm.idx.DecodedCache() == nil {
						pool.PutUint32s(b.Flat)
						pool.PutInt64s(b.Off)
					}
				}
			}
		}

		// Two shard files, keywords split by parity, queried as one index.
		even, _ := open([]int{0, 2, 4}, false)
		odd, _ := open([]int{1, 3, 5}, false)
		owner := func(w int) *Index {
			if w%2 == 0 {
				return even
			}
			return odd
		}
		for _, q := range []topic.Query{{Topics: []int{1, 2}, K: 4}, {Topics: []int{3, 0, 1, 2}, K: 10}} {
			got, err := QueryMultiStreamCtx(ctx, owner, q, wris.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := plain.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			inst := &coverage.Instance{NumVertices: plain.hdr.NumVertices, Lists: make([][]int32, plain.hdr.NumVertices)}
			var batches []*rrset.Batch
			var starts []int32
			for _, w := range q.Topics {
				if !sameLists(invRegion(t, owner(w), owner(w).Dir(w)), regions[w]) {
					t.Fatalf("%s topic %d: shard file's inverted region differs from the full file's", comp, w)
				}
				for v, list := range trimmed(regions[w], alloc[w], int32(inst.NumSets)) {
					inst.Lists[v] = append(inst.Lists[v], list...)
				}
				b, err := plain.decodeSets(ctx, plainMem, plain.Dir(w), alloc[w], false)
				if err != nil {
					t.Fatal(err)
				}
				batches, starts = append(batches, b), append(starts, int32(inst.NumSets))
				inst.NumSets += alloc[w]
			}
			want, err := coverage.Solve(inst, q.K, func(id int32) []uint32 {
				i := len(starts) - 1
				for id < starts[i] {
					i--
				}
				return batches[i].Set(int(id - starts[i]))
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Seeds, want.Seeds) || !reflect.DeepEqual(got.Marginals, want.Marginal) ||
				got.Covered != want.Covered || got.NumRRSets != inst.NumSets {
				t.Errorf("%s 2-shard query %v: %v / %v / %d of %d, greedy over the on-disk regions gives %v / %v / %d of %d",
					comp, q.Topics, got.Seeds, got.Marginals, got.Covered, got.NumRRSets, want.Seeds, want.Marginal, want.Covered, inst.NumSets)
			}
		}
	}
}
