package indexfile_test

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"kbtim"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
)

// TestHostilePreludes runs one set of corrupted preludes against a real RR
// file and a real IRR file: every one must be refused at open with
// ErrBadFormat, whichever format's parser sits behind the shared frame.
func TestHostilePreludes(t *testing.T) {
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 200, AvgDegree: 5, NumTopics: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kbtim.NewEngine(ds, kbtim.Options{Epsilon: 0.5, K: 5, MaxThetaPerKeyword: 500, PartitionSize: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	dir := t.TempDir()
	rrPath, irrPath := filepath.Join(dir, "ads.rr"), filepath.Join(dir, "ads.irr")
	if _, err := eng.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		name string
		path string
		open func(diskio.Segmented) error
	}{
		{"rr", rrPath, func(r diskio.Segmented) error { _, err := rrindex.Open(r); return err }},
		{"irr", irrPath, func(r diskio.Segmented) error { _, err := irrindex.Open(r); return err }},
	}
	// Frame layout: magic [0,4) | version u32 [4,8) | preludeLen u64 [8,16).
	setPrelude := func(n func(old uint64, size int) uint64) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], n(binary.LittleEndian.Uint64(b[8:]), len(b)))
			return b
		}
	}
	hostile := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
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
	}
	for _, f := range formats {
		pristine, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.open(diskio.NewMem(pristine, nil)); err != nil {
			t.Fatalf("%s: pristine file refused: %v", f.name, err)
		}
		for _, h := range hostile {
			data := h.corrupt(append([]byte(nil), pristine...))
			if err := f.open(diskio.NewMem(data, nil)); !errors.Is(err, indexfile.ErrBadFormat) {
				t.Errorf("%s, %s: got %v, want ErrBadFormat", f.name, h.name, err)
			}
		}
	}
}
