package graphio

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/testkit"
)

// BenchmarkLoadCSRGvsText measures the ingestion formats against each
// other on one mid-sized dense graph: chunk-parallel text parsing (the
// legacy and DIMACS codecs) versus the binary container through both the
// portable reader and the zero-copy mmap open. Throughput is reported as
// MB/s, and each loader's speedup over the legacy text codec when that
// ran first. The mmap row's allocs/op is the zero-copy acceptance number:
// it stays flat no matter how many edges the file holds.
func BenchmarkLoadCSRGvsText(b *testing.B) {
	g := testkit.Dense(60_000, 13)
	dir := b.TempDir()
	files := map[string]string{
		"legacy-text": filepath.Join(dir, "g.txt"),
		"dimacs-text": filepath.Join(dir, "g.gr"),
		"csrg":        filepath.Join(dir, "g.csrg"),
	}
	for _, path := range files {
		if err := EncodeFile(path, g); err != nil {
			b.Fatal(err)
		}
	}
	loaders := []struct {
		name string
		path string
		load func(path string) error
	}{
		{"legacy-text", files["legacy-text"], func(path string) error {
			_, _, err := LoadFile(path)
			return err
		}},
		{"dimacs-text", files["dimacs-text"], func(path string) error {
			_, _, err := LoadFile(path)
			return err
		}},
		{"csrg-readerat", files["csrg"], func(path string) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			st, err := f.Stat()
			if err != nil {
				return err
			}
			_, err = ReadCSRG(f, st.Size())
			return err
		}},
		{"csrg-mmap", files["csrg"], func(path string) error {
			m, err := OpenCSRG(path)
			if err != nil {
				return err
			}
			return m.Close()
		}},
	}
	var legacyNSPerOp float64
	for _, l := range loaders {
		st, err := os.Stat(l.path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(st.Size())
			var total int64
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if err := l.load(l.path); err != nil {
					b.Fatal(err)
				}
				total += time.Since(start).Nanoseconds()
			}
			nsPerOp := float64(total) / float64(b.N)
			if l.name == "legacy-text" {
				legacyNSPerOp = nsPerOp
			}
			if legacyNSPerOp > 0 {
				b.ReportMetric(legacyNSPerOp/nsPerOp, "speedup-vs-legacy-text")
			}
		})
	}
}
