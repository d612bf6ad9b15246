package cohana

// Benchmark suite: one testing.B target per table/figure of the paper's
// evaluation (Section 5), plus ablation benchmarks for the design choices
// called out in DESIGN.md (chunk pruning, birth-selection push-down as chunk
// skipping, parallel chunk execution). Run with
//
//	go test -bench=. -benchmem
//
// The cmd/cohana-bench binary regenerates the figures as printed tables;
// these benchmarks are the stable per-experiment measurement targets.

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cohort"
	"repro/internal/plan"
	"repro/internal/storage"
)

// benchWorkload is shared across benchmarks: 200 users at scale 1 keeps the
// full sweep tractable; raise via cmd/cohana-bench for larger runs.
var (
	benchOnce sync.Once
	benchWL   *bench.Workload
)

func wl() *bench.Workload {
	benchOnce.Do(func() { benchWL = bench.NewWorkload(200, 99) })
	return benchWL
}

func runScheme(b *testing.B, s bench.Scheme, q *cohort.Query, scale, chunkSize int) {
	b.Helper()
	w := wl()
	// Materialize inputs outside the timer: COHANA's compressed store, or
	// the per-birth-action MV (warmed through a first run).
	if s == bench.COHANA {
		w.Store(scale, chunkSize)
	}
	if s == bench.MonetM || s == bench.PGM {
		if _, _, err := w.Run(s, q, scale, chunkSize); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := w.Run(s, q, scale, chunkSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 measures COHANA's Q1-Q4 across chunk sizes (Figure 6a-d).
func BenchmarkFig6(b *testing.B) {
	for _, qn := range bench.CoreQueryNames {
		q := bench.CoreQueries()[qn]
		for _, cs := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			b.Run(qn+"/chunk="+chunkName(cs), func(b *testing.B) {
				runScheme(b, bench.COHANA, q, 1, cs)
			})
		}
	}
}

// BenchmarkFig7 measures compression (storage build), whose output size is
// the Figure 7 metric; b.ReportMetric carries bytes.
func BenchmarkFig7(b *testing.B) {
	src := wl().Source(1)
	for _, cs := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b.Run("chunk="+chunkName(cs), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				st, err := storage.Build(src, storage.Options{ChunkSize: cs})
				if err != nil {
					b.Fatal(err)
				}
				size = st.EncodedSize()
			}
			b.ReportMetric(float64(size), "storage-bytes")
		})
	}
}

// BenchmarkFig8 measures birth-selection selectivity: Q5 with a narrow,
// medium and full birth date range (Figure 8's sweep endpoints).
func BenchmarkFig8(b *testing.B) {
	cases := []struct {
		name   string
		d1, d2 string
	}{
		{"narrow", "2013-05-19", "2013-05-21"},
		{"half", "2013-05-19", "2013-06-03"},
		{"full", "2013-05-19", "2013-06-26"},
	}
	for _, c := range cases {
		b.Run("Q5/"+c.name, func(b *testing.B) {
			runScheme(b, bench.COHANA, bench.Q5(c.d1, c.d2), 1, storage.DefaultChunkSize)
		})
		b.Run("Q6/"+c.name, func(b *testing.B) {
			runScheme(b, bench.COHANA, bench.Q6(c.d1, c.d2), 1, storage.DefaultChunkSize)
		})
	}
}

// BenchmarkFig9 measures age-selection limits: Q7/Q8 with g = 1, 7, 14
// (Figure 9's sweep endpoints).
func BenchmarkFig9(b *testing.B) {
	for _, g := range []int{1, 7, 14} {
		b.Run("Q7/g="+itoa(g), func(b *testing.B) {
			runScheme(b, bench.COHANA, bench.Q7(g), 1, storage.DefaultChunkSize)
		})
		b.Run("Q8/g="+itoa(g), func(b *testing.B) {
			runScheme(b, bench.COHANA, bench.Q8(g), 1, storage.DefaultChunkSize)
		})
	}
}

// BenchmarkFig10 measures preprocessing: COHANA compression vs MV builds
// (Figure 10).
func BenchmarkFig10(b *testing.B) {
	w := wl()
	b.Run("COHANA-compress", func(b *testing.B) {
		src := w.Source(1)
		for i := 0; i < b.N; i++ {
			if _, err := storage.Build(src, storage.Options{ChunkSize: storage.DefaultChunkSize}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MV-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.BuildTimes(1, "launch")
		}
	})
}

// BenchmarkFig11 measures Q1-Q4 under all five schemes (Figure 11a-d).
func BenchmarkFig11(b *testing.B) {
	for _, qn := range bench.CoreQueryNames {
		q := bench.CoreQueries()[qn]
		for _, s := range bench.AllSchemes {
			b.Run(qn+"/"+string(s), func(b *testing.B) {
				if s == bench.MonetM || s == bench.PGM {
					if _, _, err := wl().Run(s, q, 1, storage.DefaultChunkSize); err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
				}
				runScheme(b, s, q, 1, storage.DefaultChunkSize)
			})
		}
	}
}

// BenchmarkAblationParallel measures the optional chunk-parallel execution
// (a deviation from the paper's single-threaded setting, off by default).
func BenchmarkAblationParallel(b *testing.B) {
	w := wl()
	st := w.Store(2, 4<<10)
	q := bench.Q1()
	for _, par := range []int{0, -1} {
		name := "serial"
		if par != 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.Execute(q, st, plan.ExecOptions{Parallelism: par}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryParsing isolates parser cost (negligible next to execution,
// as the paper assumes when it ignores parse time).
func BenchmarkQueryParsing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Q4()
	}
}

func chunkName(cs int) string {
	switch {
	case cs >= 1<<20:
		return itoa(cs>>20) + "M"
	default:
		return itoa(cs>>10) + "K"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
