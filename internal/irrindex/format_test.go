package irrindex

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"kbtim/internal/binfmt"
	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
)

// openFigure1 opens the Figure-1 index (δ = 2) and also returns the reader
// it sits on, for tests that call the decoders directly.
func openFigure1(t testing.TB) (*Index, diskio.Segmented) {
	t.Helper()
	mem := diskio.NewMem(buildFigure1Mem(t, 2), nil)
	idx, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	return idx, mem
}

// TestPartitionBlockIsHeadOnly pins format v3 with a walker that shares
// nothing with decodePartition: every block is consumed exactly by NumUsers ×
// (vertex, list) plus the claimed-ID list, and the claimed IDs of a keyword's
// partitions partition [0, θ_w) — which is what keeps Loaded and NumRRSets
// exact although the member lists of Algorithm 3 are not stored.
func TestPartitionBlockIsHeadOnly(t *testing.T) {
	idx, _ := openFigure1(t)
	comp := idx.Header().Compression
	for _, w := range idx.Keywords() {
		d := idx.Dir(w)
		claimed := make([]bool, d.ThetaW)
		total := 0
		for pi, p := range d.Partitions {
			block, err := idx.ArtifactBytes(UnitPart, w, int64(pi))
			if err != nil {
				t.Fatal(err)
			}
			pos := 0
			list := func() []uint32 {
				l, n, err := comp.DecodeList(nil, block[pos:])
				if err != nil {
					t.Fatalf("topic %d partition %d at byte %d: %v", w, pi, pos, err)
				}
				pos += n
				return l
			}
			for u := 0; u < p.NumUsers; u++ {
				_, n := binary.Uvarint(block[pos:])
				if n <= 0 {
					t.Fatalf("topic %d partition %d: bad vertex at byte %d", w, pi, pos)
				}
				pos += n
				list()
			}
			ids := list()
			if pos != len(block) {
				t.Fatalf("topic %d partition %d: %d of %d bytes consumed; v3 stores nothing behind the claimed IDs", w, pi, pos, len(block))
			}
			if len(ids) != p.NumSets {
				t.Fatalf("topic %d partition %d: %d claimed IDs, directory says %d", w, pi, len(ids), p.NumSets)
			}
			for _, id := range ids {
				if int64(id) >= d.ThetaW || claimed[id] {
					t.Fatalf("topic %d partition %d: set %d out of range or claimed twice", w, pi, id)
				}
				claimed[id] = true
			}
			total += p.NumSets
		}
		if int64(total) != d.ThetaW {
			t.Fatalf("topic %d: partitions claim %d sets, θ_w = %d", w, total, d.ThetaW)
		}
	}
}

// TestIPTableMatchesLists: the flat IP table lists exactly the users of the
// keyword's partitions, ascending, and first[i] is the head of users[i]'s
// untrimmed inverted list.
func TestIPTableMatchesLists(t *testing.T) {
	idx, r := openFigure1(t)
	ctx := context.Background()
	for _, w := range idx.Keywords() {
		d := idx.Dir(w)
		heads := map[uint32]int32{}
		for pi := range d.Partitions {
			blk, err := idx.decodePartition(ctx, r, d, pi, int(d.ThetaW))
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range blk.users {
				if _, dup := heads[u]; dup || len(blk.lists[i]) == 0 {
					t.Fatalf("topic %d: user %d listed twice or with an empty list", w, u)
				}
				heads[u] = blk.lists[i][0]
			}
			blk.release()
		}
		ip, err := idx.decodeIP(ctx, r, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(ip.users) != len(heads) || len(ip.first) != len(heads) || len(heads) != d.NumIPEntries {
			t.Fatalf("topic %d: IP has %d/%d entries, partitions list %d users, directory says %d",
				w, len(ip.users), len(ip.first), len(heads), d.NumIPEntries)
		}
		for i, u := range ip.users {
			if i > 0 && u <= ip.users[i-1] {
				t.Fatalf("topic %d: IP users not ascending at %d", w, i)
			}
			if head, ok := heads[u]; !ok || head != ip.first[i] {
				t.Fatalf("topic %d: IP says user %d first occurs in set %d, its list starts at %d (listed: %v)", w, u, ip.first[i], head, ok)
			}
		}
	}
}

// TestDecodedCacheChargesHeldBytes is the IRR twin of the rrindex test of the
// same name: the budget must be told what the heap holds. After every IP
// table and partition block of the index has been published, the cache's byte
// count must equal the capacity bytes of exactly those values — and a block's
// lists must all live inside its one arena, back to back with len == cap, so
// nothing is pinned that the sum does not see.
func TestDecodedCacheChargesHeldBytes(t *testing.T) {
	idx, r := openFigure1(t)
	cache := objcache.New(4 << 20)
	idx.SetDecodedCache(cache)
	ctx := context.Background()
	noLoad := func() (any, int64, error) {
		t.Fatal("loader ran on what must be a hit")
		return nil, 0, nil
	}
	var held int64
	for _, w := range idx.Keywords() {
		d := idx.Dir(w)
		var dec indexfile.DecCounters
		st := &kwState{dir: d, thetaQw: int(d.ThetaW), ipHot: make([]bool, idx.Header().NumVertices)}
		if err := idx.loadIP(ctx, r, st, &dec); err != nil {
			t.Fatal(err)
		}
		v, err := idx.Cached(objcache.Key{Region: regionIP, Topic: int32(w)}, &dec, noLoad)
		if err != nil {
			t.Fatal(err)
		}
		ip := v.(ipTable)
		if len(ip.users) != d.NumIPEntries {
			t.Fatalf("topic %d: cached IP has %d entries, directory says %d", w, len(ip.users), d.NumIPEntries)
		}
		held += int64(cap(ip.users)+cap(ip.first)) * 4
		for pi := range d.Partitions {
			if _, err := idx.partition(ctx, r, d, pi, 1, &dec); err != nil {
				t.Fatal(err)
			}
			blk, err := idx.partition(ctx, nil, d, pi, 1, &dec) // a hit: the reader is never touched
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for i, l := range blk.lists {
				if len(l) == 0 || cap(l) != len(l) || &l[0] != &blk.arena[off] {
					t.Fatalf("topic %d partition %d: list %d (len %d, cap %d) is not the arena's next %d entries", w, pi, i, len(l), cap(l), len(l))
				}
				off += len(l)
			}
			if blk.pooled || off != len(blk.arena) || off != cap(blk.arena) {
				t.Fatalf("topic %d partition %d: lists cover %d entries of an arena of len %d cap %d (pooled %v)", w, pi, off, len(blk.arena), cap(blk.arena), blk.pooled)
			}
			held += int64(cap(blk.users)+cap(blk.setIDs)+cap(blk.arena))*4 + int64(cap(blk.lists))*24
		}
		if dec.Misses != int64(1+len(d.Partitions)) || dec.Hits != dec.Misses {
			t.Fatalf("topic %d: %d misses and %d hits over 1 IP table + %d partitions asked twice", w, dec.Misses, dec.Hits, len(d.Partitions))
		}
	}
	if got := cache.Stats().BytesCached; got != held {
		t.Fatalf("cache charged %d bytes; the published tables and blocks hold %d", got, held)
	}
}

// TestOpenRejectsOldFormat: a v2 file (member lists behind the claimed IDs)
// must fail at Open, not at the first partition decode, and the error must
// say what to do about it.
func TestOpenRejectsOldFormat(t *testing.T) {
	data := append([]byte(nil), buildFigure1Mem(t, 2)...)
	br := binfmt.NewReader(data)
	if string(br.Bytes(4)) != indexMagic || br.U32() != 3 {
		t.Fatal("a fresh build is not a version-3 KBII file")
	}
	binary.LittleEndian.PutUint32(data[4:8], 2)
	_, err := Open(diskio.NewMem(data, nil))
	if err == nil {
		t.Fatal("version-2 file opened")
	}
	for _, want := range []string{"version 2", "version 3", "kbtim-build -type irr"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// bareIndex is an Index with just the header fields the payload decoders
// consult. They read through the reader they are handed, so a hostile region
// needs no file framed around it.
func bareIndex(comp codec.Compression, numVertices int) *Index {
	return &Index{hdr: Header{Header: indexfile.Header{Compression: comp, NumVertices: numVertices}}}
}

// decodeBareIP runs decodeIP over region as the whole IP table of a keyword
// with θ_w = theta whose directory claims entries entries.
func decodeBareIP(idx *Index, region []byte, entries int, theta int64) (ipTable, error) {
	d := &KeywordDir{ThetaW: theta, IPLen: int64(len(region)), NumIPEntries: entries}
	return idx.decodeIP(context.Background(), diskio.NewMem(region, nil), d)
}

// decodeBareBlock runs decodePartition, trimming lists to IDs < limit, over
// block as the only partition of a keyword with θ_w = theta whose directory
// claims users users and sets sets.
func decodeBareBlock(idx *Index, block []byte, users, sets int, theta int64, limit int) (*partBlock, error) {
	d := &KeywordDir{ThetaW: theta, Partitions: []Partition{{Len: int64(len(block)), NumUsers: users, NumSets: sets}}}
	return idx.decodePartition(context.Background(), diskio.NewMem(block, nil), d, 0, limit)
}
