package study_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"spfail/internal/population"
	"spfail/internal/study"
)

// BenchmarkStudyPeakRSS runs one study at scale 0.01, seed 1, with
// spfail-study's defaults and reports the process's resident-set
// high-water mark as peak-rss-bytes, the metric benchjson's -rss-gate
// caps. The mark covers the whole test process, so run the benchmark alone
// at -benchtime=1x:
//
//	go test -run='^$' -bench='^BenchmarkStudyPeakRSS$' -benchtime=1x ./internal/study \
//	    | go run ./scripts/benchjson -rss-gate 96MiB
func BenchmarkStudyPeakRSS(b *testing.B) {
	spec := population.DefaultSpec()
	spec.Scale = 0.01
	spec.Seed = 1
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(context.Background(), study.Config{Spec: spec}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	peak, err := vmHWM()
	if err != nil {
		b.Skipf("no peak RSS: %v", err)
	}
	b.ReportMetric(float64(peak), "peak-rss-bytes")
}

// vmHWM reads the process's resident-set high-water mark, in bytes, from
// /proc/self/status.
func vmHWM() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		kib, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:"))
		if !ok {
			continue
		}
		kib = bytes.TrimSuffix(bytes.TrimSpace(kib), []byte(" kB"))
		n, err := strconv.ParseInt(string(kib), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return n << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
