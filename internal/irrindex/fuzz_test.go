package irrindex

import (
	"math"
	"runtime"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/pool"
)

// fuzzVertices is the Figure-1 graph's vertex count: the seed corpus is that
// index's real IP regions and partition blocks.
const fuzzVertices = 7

// allocatedBy returns the heap bytes fn allocated (process-wide, so only
// meaningful with slack; the fuzz targets use it to tell "a few kB" from "a
// directory count turned into a make").
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack is what a decode may allocate over a small multiple of its
// input: pool class rounding, the block struct, error values, and whatever
// the test binary's other goroutines do meanwhile.
const allocSlack = 1 << 20

// FuzzDecodeIP feeds decodeIP arbitrary regions under arbitrary directory
// claims (entry count, θ_w): a bounded error and a zero table, or a table
// that satisfies every invariant the query relies on — never a panic, and
// never an allocation sized by the directory instead of by the bytes.
func FuzzDecodeIP(f *testing.F) {
	idx, _ := openFigure1(f)
	for _, w := range idx.Keywords() {
		d := idx.Dir(w)
		region, err := idx.ArtifactBytes(UnitIP, w, 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(region, uint32(d.NumIPEntries), uint32(d.ThetaW))
	}
	bare := bareIndex(codec.Delta, fuzzVertices)
	f.Fuzz(func(t *testing.T, region []byte, entries, theta uint32) {
		theta &= math.MaxInt32 // RR-set IDs are int32 throughout
		var ip ipTable
		var err error
		grew := allocatedBy(func() {
			ip, err = decodeBareIP(bare, region, int(entries), int64(theta))
		})
		if grew > 64*uint64(len(region))+allocSlack {
			t.Fatalf("%d-byte region claiming %d entries allocated %d bytes", len(region), entries, grew)
		}
		if err != nil {
			if ip.users != nil || ip.first != nil {
				t.Fatalf("error %v came with a table", err)
			}
			return
		}
		if len(ip.users) != int(entries) || len(ip.first) != int(entries) ||
			cap(ip.users) != len(ip.users) || cap(ip.first) != len(ip.first) || 2*int(entries) > len(region) {
			t.Fatalf("%d entries claimed in %d bytes: columns len %d/%d cap %d/%d",
				entries, len(region), len(ip.users), len(ip.first), cap(ip.users), cap(ip.first))
		}
		for i, u := range ip.users {
			if u >= fuzzVertices || (i > 0 && u <= ip.users[i-1]) || ip.first[i] < 0 || uint32(ip.first[i]) >= theta {
				t.Fatalf("entry %d = (%d → %d) accepted under %d vertices, θ_w %d, after vertex %v", i, u, ip.first[i], fuzzVertices, theta, ip.users[:i])
			}
		}
	})
}

// FuzzDecodePartition feeds decodePartition arbitrary blocks under arbitrary
// directory claims (user count, set count, θ_w, decode limit), in both
// compressions: a bounded error with every pooled array returned, or a block
// that satisfies every invariant loadNextPartition relies on.
func FuzzDecodePartition(f *testing.F) {
	idx, _ := openFigure1(f)
	for _, w := range idx.Keywords() {
		d := idx.Dir(w)
		for pi, p := range d.Partitions {
			block, err := idx.ArtifactBytes(UnitPart, w, int64(pi))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(block, uint32(p.NumUsers), uint32(p.NumSets), uint32(d.ThetaW), uint32(d.ThetaW), false)
			f.Add(block, uint32(p.NumUsers), uint32(p.NumSets), uint32(d.ThetaW), uint32(d.ThetaW/2), false)
		}
	}
	f.Fuzz(func(t *testing.T, block []byte, users, sets, theta, limit uint32, raw bool) {
		theta, limit = theta&math.MaxInt32, limit&math.MaxInt32 // RR-set IDs are int32 throughout
		comp := codec.Delta
		if raw {
			comp = codec.Raw
		}
		bare := bareIndex(comp, fuzzVertices)
		g0, p0 := pool.Counts()
		var blk *partBlock
		var err error
		grew := allocatedBy(func() {
			blk, err = decodeBareBlock(bare, block, int(users), int(sets), int64(theta), int(limit))
		})
		if grew > 64*uint64(len(block))+allocSlack {
			t.Fatalf("%d-byte block claiming %d users and %d sets allocated %d bytes", len(block), users, sets, grew)
		}
		if err != nil {
			if g1, p1 := pool.Counts(); blk != nil || g1-g0 != p1-p0 {
				t.Fatalf("error %v came with a block, or leaked pooled arrays (%d gets, %d puts)", err, g1-g0, p1-p0)
			}
			return
		}
		defer blk.release()
		if len(blk.users) != int(users) || len(blk.lists) != int(users) || len(blk.setIDs) != int(sets) ||
			2*int(users) > len(block) || int(sets) > len(block) || len(blk.arena) > len(block) {
			t.Fatalf("%d users and %d sets claimed in %d bytes: decoded %d/%d users, %d sets, %d list entries",
				users, sets, len(block), len(blk.users), len(blk.lists), len(blk.setIDs), len(blk.arena))
		}
		off := 0
		for i, l := range blk.lists {
			if blk.users[i] >= fuzzVertices || cap(l) != len(l) || (len(l) > 0 && &l[0] != &blk.arena[off]) {
				t.Fatalf("user %d (vertex %d): list len %d cap %d is not the arena's next entries", i, blk.users[i], len(l), cap(l))
			}
			for j, id := range l {
				if id < 0 || uint32(id) >= limit || (j > 0 && id <= l[j-1]) {
					t.Fatalf("user %d: list %v escapes limit %d or does not ascend", i, l, limit)
				}
			}
			off += len(l)
		}
		if off != len(blk.arena) {
			t.Fatalf("lists cover %d of the arena's %d entries", off, len(blk.arena))
		}
		for _, id := range blk.setIDs {
			if id >= theta {
				t.Fatalf("claimed ID %d accepted under θ_w %d", id, theta)
			}
		}
	})
}
