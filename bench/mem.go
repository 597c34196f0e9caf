package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// memSampleEvery is the peak-memory sampling period.
const memSampleEvery = 10 * time.Millisecond

// liveBytes is the memory the Go runtime holds from the OS and has not
// released back: /memory/classes/total minus the released heap.
func liveBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase measures one timed phase of the process it runs in: wall time,
// CPU busy share and the peak of liveBytes, sampled by a goroutine that
// end stops and waits for.
type phase struct {
	start time.Time
	cpu0  time.Duration
	peak  atomic.Uint64
	stop  chan struct{}
	done  chan struct{}
}

// phaseStats is what a finished phase reports.
type phaseStats struct {
	Wall        time.Duration `json:"wall_ns"`
	CPUBusyFrac float64       `json:"cpu_busy_frac"`
	PeakMemMB   float64       `json:"peak_mem_mb"`
}

// beginPhase collects garbage and returns freed memory to the OS, so
// the peak reflects the phase and not what set-up left behind, then
// starts timing.
func beginPhase() *phase {
	runtime.GC()
	debug.FreeOSMemory()
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	p.peak.Store(liveBytes())
	go func() {
		defer close(p.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if b := liveBytes(); b > p.peak.Load() {
					p.peak.Store(b)
				}
			}
		}
	}()
	p.cpu0 = cpuTime()
	p.start = time.Now()
	return p
}

// end stops the sampler, waits for it, and reports the phase.
func (p *phase) end() phaseStats {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu0
	close(p.stop)
	<-p.done
	if b := liveBytes(); b > p.peak.Load() {
		p.peak.Store(b)
	}
	return phaseStats{
		Wall:        wall,
		CPUBusyFrac: cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		PeakMemMB:   float64(p.peak.Load()) / (1 << 20),
	}
}
