package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childTimeout bounds one child process; a child still running then is
// killed and the run fails rather than hanging the benchmark.
const childTimeout = 150 * time.Second

// spawn re-executes this binary with args and decodes the JSON object the
// child prints as the last line of its standard output into v. It waits
// for the child to exit in every case.
func spawn(ctx context.Context, v any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %v: decoding result: %w", args, err)
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// Runtime metrics the harness reads. The histograms are cumulative since
// process start, and every measured iteration is a fresh process, so
// they describe one iteration.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCycles   = "/gc/cycles/total:gc-cycles"
	rtGCPauses   = "/sched/pauses/total/gc:seconds"
	rtSchedLat   = "/sched/latencies:seconds"
)

type runtimeSnap struct {
	allocBytes uint64
	gcCycles   uint64
	pauses     *metrics.Float64Histogram
	sched      *metrics.Float64Histogram
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCycles}, {Name: rtGCPauses}, {Name: rtSchedLat}}
	metrics.Read(s)
	var out runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = s[2].Value.Float64Histogram()
	}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		out.sched = s[3].Value.Float64Histogram()
	}
	return out
}

// histQuantile returns the upper edge of the bucket holding the q-th
// quantile (0 for an empty histogram).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(q*float64(total) + 0.5)
	if want < 1 {
		want = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= want {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// refNominal is the reference kernel's wall time, in seconds, on a quiet
// 2-vCPU Xeon VM at 2.0 GHz. Timings are reported at that machine speed.
const refNominal = 0.125

// reference runs a fixed amount of standard-library work on GOMAXPROCS
// goroutines (hashing, small allocations the collector must sweep, and
// channel hand-offs between goroutines, the mix the workloads stress) and
// returns its wall time in seconds. No code of the repository runs in it,
// so no change to the program can move it; only the machine's speed can.
func reference() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ping, pong := make(chan int), make(chan int)
			go func() {
				for v := range ping {
					pong <- v + 1
				}
				close(pong)
			}()
			buf := make([]byte, 512)
			for i := 0; i < 120000; i++ {
				sum := sha256.Sum256(buf)
				buf[i%len(buf)] = sum[0]
				m := make(map[int][]byte, 8)
				for k := 0; k < 8; k++ {
					m[k] = make([]byte, 64)
				}
				if i%8 == 0 {
					ping <- len(m)
					<-pong
				}
			}
			close(ping)
			for range pong {
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
