package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time so far, all threads
// included (the GC and any background goroutines too).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's resident set size (VmRSS) and its
// high-water mark since the process started (VmHWM) from
// /proc/self/status. The high-water mark is the kernel's own record, so it
// catches memory a period allocates and drops again, such as an
// embedding's scratch matrices, which no reading between periods sees.
func residentBytes() (rss, hwm uint64, err error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return parseResident(bufio.NewScanner(f))
}

func parseResident(sc *bufio.Scanner) (rss, hwm uint64, err error) {
	found := 0
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || (key != "VmRSS" && key != "VmHWM") {
			continue
		}
		kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", key, err)
		}
		if key == "VmRSS" {
			rss = kb << 10
		} else {
			hwm = kb << 10
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("VmRSS or VmHWM missing from /proc/self/status")
	}
	return rss, hwm, nil
}

// peakGauge measures how far the process's resident memory peaks above
// where it stood when the gauge started: the memory the workload's
// structures made the process hold at their largest, garbage not yet
// collected included.
type peakGauge struct {
	base uint64
}

func startPeakGauge() (peakGauge, error) {
	rss, _, err := residentBytes()
	return peakGauge{base: rss}, err
}

// peak returns the high-water mark so far above the base, in bytes.
func (g peakGauge) peak() (uint64, error) {
	_, hwm, err := residentBytes()
	if err != nil || hwm < g.base {
		return 0, err
	}
	return hwm - g.base, nil
}
