package indexfile_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
)

// extent is one payload byte range a directory names.
type extent struct{ off, length int64 }

// claim is one keyword's θ_w and the payload bytes that hold its RR sets; a
// set costs at least one byte.
type claim struct{ sets, bytes int64 }

// formats opens a file as each index format and lists every extent and
// θ_w claim the parsed directory names.
var formats = []struct {
	name string
	tail int // header bytes between ε and numKeywords
	open func(diskio.Segmented) (*indexfile.File, []extent, []claim, error)
}{
	{"rr", 0, func(r diskio.Segmented) (*indexfile.File, []extent, []claim, error) {
		idx, err := rrindex.Open(r)
		if err != nil {
			return nil, nil, nil, err
		}
		var ext []extent
		var cl []claim
		for _, w := range idx.Keywords() {
			d := idx.Dir(w)
			ext = append(ext, extent{d.SetsOff, d.SetsLen}, extent{d.InvOff, d.InvLen})
			cl = append(cl, claim{d.ThetaW, d.SetsLen})
		}
		return idx.Substrate(), ext, cl, nil
	}},
	{"irr", 4, func(r diskio.Segmented) (*indexfile.File, []extent, []claim, error) {
		idx, err := irrindex.Open(r)
		if err != nil {
			return nil, nil, nil, err
		}
		var ext []extent
		var cl []claim
		for _, w := range idx.Keywords() {
			d := idx.Dir(w)
			ext = append(ext, extent{d.IPOff, d.IPLen})
			c := claim{sets: d.ThetaW}
			for _, p := range d.Partitions {
				ext = append(ext, extent{p.Off, p.Len})
				c.bytes += p.Len
			}
			cl = append(cl, c)
		}
		return idx.Substrate(), ext, cl, nil
	}},
}

// buildIndexes writes a small real index of each format and returns the
// files' bytes keyed by format name.
func buildIndexes(tb testing.TB) map[string][]byte {
	tb.Helper()
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 200, AvgDegree: 5, NumTopics: 4, Seed: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := kbtim.NewEngine(ds, kbtim.Options{Epsilon: 0.5, K: 5, MaxThetaPerKeyword: 500, PartitionSize: 5, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	defer eng.Close()
	dir := tb.TempDir()
	rrPath, irrPath := filepath.Join(dir, "ads.rr"), filepath.Join(dir, "ads.irr")
	if _, err := eng.BuildRRIndex(rrPath); err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.BuildIRRIndex(irrPath); err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	for name, path := range map[string]string{"rr": rrPath, "irr": irrPath} {
		if files[name], err = os.ReadFile(path); err != nil {
			tb.Fatal(err)
		}
	}
	return files
}

// entryKey is how both formats open topic w's directory entry: topic ID u32 |
// θ_w u64.
func entryKey(w int, theta int64) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, uint32(w)), uint64(theta))
}

// findOnce returns b from the one place key occurs in b's prelude.
func findOnce(b, key []byte) []byte {
	prelude := b[:binary.LittleEndian.Uint64(b[8:])]
	i := bytes.Index(prelude, key)
	if i < 0 || bytes.Contains(prelude[i+1:], key) {
		panic("findOnce: directory field not found exactly once")
	}
	return b[i:]
}

// forgeThetaW rewrites every keyword's θ_w claim in a real RR or IRR file
// to theta(old, part). Each claim is found by its entry key within the
// prelude. For an IRR file part is the keyword's first partition entry (off
// u64 | len u64 | numUsers u32 | numSets u32 | lastListLen u32), which theta
// may rewrite too; for an RR file it is nil.
func forgeThetaW(b []byte, theta func(old int64, part []byte) int64) []byte {
	le := binary.LittleEndian
	forge := func(w int, old int64, part []byte) {
		le.PutUint64(findOnce(b, entryKey(w, old))[4:], uint64(theta(old, part)))
	}
	if rr, err := rrindex.Open(diskio.NewMem(b, nil)); err == nil {
		for _, w := range rr.Keywords() {
			forge(w, rr.Dir(w).ThetaW, nil)
		}
	} else if irr, err := irrindex.Open(diskio.NewMem(b, nil)); err == nil {
		for _, w := range irr.Keywords() {
			d := irr.Dir(w)
			p := d.Partitions[0]
			forge(w, d.ThetaW, findOnce(b, le.AppendUint64(le.AppendUint64(nil, uint64(p.Off)), uint64(p.Len))))
		}
	} else {
		panic("forgeThetaW: pristine file does not open")
	}
	return b
}

// duplicateTopic relabels the directory entry of a real file's second-lowest
// topic with its lowest, so two entries name one topic. Every extent and
// claim stays valid: only a check for the repeat can refuse the file.
func duplicateTopic(b []byte) []byte {
	theta := map[int]int64{}
	if rr, err := rrindex.Open(diskio.NewMem(b, nil)); err == nil {
		for _, w := range rr.Keywords() {
			theta[w] = rr.Dir(w).ThetaW
		}
	} else if irr, err := irrindex.Open(diskio.NewMem(b, nil)); err == nil {
		for _, w := range irr.Keywords() {
			theta[w] = irr.Dir(w).ThetaW
		}
	} else {
		panic("duplicateTopic: pristine file does not open")
	}
	topics := make([]int, 0, len(theta))
	for w := range theta {
		topics = append(topics, w)
	}
	sort.Ints(topics)
	binary.LittleEndian.PutUint32(findOnce(b, entryKey(topics[1], theta[topics[1]])), uint32(topics[0]))
	return b
}

// TestHostilePreludes runs one set of corrupted preludes against a real RR
// file and a real IRR file: every one must be refused at open with
// ErrBadFormat, whichever format's parser sits behind the shared frame.
func TestHostilePreludes(t *testing.T) {
	files := buildIndexes(t)
	// Frame layout: magic [0,4) | version u32 [4,8) | preludeLen u64 [8,16).
	setPrelude := func(n func(old uint64, size int) uint64) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], n(binary.LittleEndian.Uint64(b[8:]), len(b)))
			return b
		}
	}
	type row struct {
		name    string
		corrupt func([]byte) []byte
	}
	hostile := []row{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"wrong version", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b }},
		{"file shorter than the frame", func(b []byte) []byte { return b[:10] }},
		{"prelude length below the frame", setPrelude(func(uint64, int) uint64 { return 15 })},
		{"prelude length beyond the file", setPrelude(func(_ uint64, size int) uint64 { return uint64(size) + 1 })},
		{"prelude length overflowing int64", setPrelude(func(uint64, int) uint64 { return 1 << 63 })},
		{"truncated header", setPrelude(func(uint64, int) uint64 { return 20 })},
		{"truncated directory", setPrelude(func(old uint64, _ int) uint64 { return old - 5 })},
		{"payload extent past the end of the file", func(b []byte) []byte { return b[:len(b)-1] }},
		{"payload extent inside the prelude", setPrelude(func(old uint64, _ int) uint64 { return old + 1 })},
		{"θ_w beyond what the payload holds", func(b []byte) []byte {
			return forgeThetaW(b, func(int64, []byte) int64 { return 1 << 24 })
		}},
		{"topic named by two directory entries", duplicateTopic},
		{"|V| beyond 2^32, more vertices than uint32 IDs name", func(b []byte) []byte {
			// numVertices u64 follows the frame, the three single-byte
			// fields and the model name, whose length is b[18].
			binary.LittleEndian.PutUint64(b[16+3+int(b[18]):], 1<<40)
			return b
		}},
	}
	// An IRR θ_w is exactly its partitions' set count, so smaller lies fail
	// there too.
	hostileIRR := []row{
		{"θ_w one more than the partitions claim", func(b []byte) []byte {
			return forgeThetaW(b, func(old int64, _ []byte) int64 { return old + 1 })
		}},
		{"partition claiming more sets than bytes", func(b []byte) []byte {
			// numSets := len+1, and θ_w follows it, so only the
			// per-partition bound can refuse the file.
			return forgeThetaW(b, func(old int64, part []byte) int64 {
				sets := binary.LittleEndian.Uint64(part[8:]) + 1
				old += int64(sets) - int64(binary.LittleEndian.Uint32(part[20:]))
				binary.LittleEndian.PutUint32(part[20:], uint32(sets))
				return old
			})
		}},
	}
	for _, f := range formats {
		pristine := files[f.name]
		if _, _, _, err := f.open(diskio.NewMem(pristine, nil)); err != nil {
			t.Fatalf("%s: pristine file refused: %v", f.name, err)
		}
		rows := hostile
		if f.name == "irr" {
			rows = append(rows, hostileIRR...)
		}
		for _, h := range rows {
			data := h.corrupt(append([]byte(nil), pristine...))
			if _, _, _, err := f.open(diskio.NewMem(data, nil)); !errors.Is(err, indexfile.ErrBadFormat) {
				t.Errorf("%s, %s: got %v, want ErrBadFormat", f.name, h.name, err)
			}
		}
	}
}

// declaredKeywords reads numKeywords from the header of a file that opened:
// frame (16) | compression, sizing, modelNameLen (3) | modelName |
// numVertices u64 | numTopics u32 | K u32 | ε f64 | tail | numKeywords u32.
func declaredKeywords(b []byte, tail int) int {
	return int(binary.LittleEndian.Uint32(b[16+3+int(b[18])+8+4+4+8+tail:]))
}

// allocSlack is what an open may allocate over a small multiple of its
// input: the index structs, error values, and whatever the test binary's
// other goroutines do meanwhile.
const allocSlack = 1 << 20

// FuzzOpen feeds arbitrary files to both formats' Open: a bounded
// ErrBadFormat, or an index with one keyword per directory entry, whose |V|
// is at most 2^32 (vertex IDs are uint32), whose every directory extent lies
// between the prelude and the end of the file and whose every θ_w fits the
// bytes that hold its sets — never a panic, and never an allocation (at open or at the
// first query) sized by a prelude claim instead of by the bytes.
func FuzzOpen(f *testing.F) {
	files := buildIndexes(f)
	f.Add(files["rr"])
	f.Add(files["irr"])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fm := range formats {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			file, exts, claims, err := fm.open(diskio.NewMem(data, nil))
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+allocSlack {
				t.Fatalf("%s: %d-byte file allocated %d bytes at open", fm.name, len(data), grew)
			}
			if err != nil {
				if !errors.Is(err, indexfile.ErrBadFormat) {
					t.Fatalf("%s: got %v, want ErrBadFormat", fm.name, err)
				}
				continue
			}
			if file.Shape.NumVertices > 1<<32 {
				t.Fatalf("%s: opened with |V| = %d", fm.name, file.Shape.NumVertices)
			}
			if n := declaredKeywords(data, fm.tail); len(file.Keywords()) != n {
				t.Fatalf("%s: opened %d keywords from %d directory entries", fm.name, len(file.Keywords()), n)
			}
			for _, e := range exts {
				if !file.InPayload(e.off, e.length) {
					t.Fatalf("%s: opened with extent [%d, +%d) outside the payload of a %d-byte file", fm.name, e.off, e.length, len(data))
				}
			}
			for _, c := range claims {
				if c.sets > c.bytes {
					t.Fatalf("%s: opened with θ_w %d over %d bytes of sets", fm.name, c.sets, c.bytes)
				}
			}
		}
	})
}
