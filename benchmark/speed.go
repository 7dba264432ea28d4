package main

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed rescaling (README.md, "Host-speed rescaling").
//
// The measuring host lends its vCPUs out. For a fraction of a second to
// minutes at a time a vCPU runs slower, and the guest sees no steal time.
// Between processes this moved recover's median wall time by up to a
// third, more than any bound a change could be held to. So the timings
// of the simulator workloads are rescaled by the speed of a reference
// kernel timed just before and just after each run (each matrix slice): a
// run that takes t while the kernel takes r counts as t × refNominal / r.
// The kernel is fixed code of the benchmark's own, so a change to the
// program under test does not move it, and it allocates nothing, so the
// program's garbage collection does not move it either. It is timed by
// the wall clock, like the runs. On tcp only CPU time is rescaled: the
// cluster's timers pace its wall time, but the host's speed still sets
// what each message costs.
//
// Like the simulator, the kernel mixes work on a cache-resident working
// set with misses to DRAM. The cache-resident half alone follows the host
// badly: its time switches between two values a factor of two apart
// while the runs' times move by a quarter.

const (
	// refSlots is the length of the kernel's cache-resident cyclic
	// permutation (32 KiB) and refKeys the size of its map.
	refSlots = 1 << 13
	refKeys  = 1 << 10
	// refLaps timed passes over the permutation follow one untimed pass
	// that brings it back into cache after a run.
	refLaps = 2
	// refFarSlots is the length of the kernel's second permutation (8 MiB,
	// mapped outside the Go heap by the first reading), of which each
	// reading follows refFarSteps links from a new start, each a miss to
	// DRAM.
	refFarSlots = 1 << 21
	refFarSteps = 2000
	// refNominal is about the kernel's time on a vCPU of the measuring
	// host, so that a rescaled time reads like a measured one.
	refNominal = 650 * time.Microsecond
)

var (
	refPerm []uint32
	refMap  map[uint32]uint32
	refFar  []uint32
	// refFarStart spreads the readings' starts over refFar, so that no
	// reading finds its links cached by an earlier one.
	refFarStart atomic.Uint32
	refFarOnce  sync.Once
	refSink     atomic.Uint32 // keeps the kernel's result alive
)

func init() {
	rng := rand.New(rand.NewSource(1))
	refPerm = cycle(make([]uint32, refSlots), rng)
	refMap = make(map[uint32]uint32, refKeys)
	for k := uint32(0); k < refKeys; k++ {
		refMap[k] = rng.Uint32()
	}
}

// cycle fills p with a random cyclic permutation of [0, len(p)), drawn in
// place by Sattolo's algorithm: following p from any slot visits every
// slot.
func cycle(p []uint32, rng *rand.Rand) []uint32 {
	n := len(p)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// refResident is the memory the kernel holds resident, which the peak
// resident set size leaves out: the DRAM-sized permutation once a reading
// has allocated it.
func refResident() int64 {
	return int64(len(refFar)) * 4
}

// refNear walks the cache-resident permutation laps times, looking up every
// step in the map.
func refNear(laps int) uint32 {
	x, h := uint32(0), uint32(0)
	for i := 0; i < laps*refSlots; i++ {
		x = refPerm[x]
		h = h*0x9e3779b1 + refMap[x&(refKeys-1)]
	}
	return h
}

// refFarWalk follows refFarSteps links of the DRAM-sized permutation.
func refFarWalk() uint32 {
	x := refFarStart.Add(0x9e3779b1) % refFarSlots
	for i := 0; i < refFarSteps; i++ {
		x = refFar[x]
	}
	return x
}

// refTime times the reference kernel on the calling goroutine's thread.
func refTime() time.Duration {
	refFarOnce.Do(func() { refFar = cycle(offHeap(refFarSlots), rand.New(rand.NewSource(2))) })
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	h := refNear(1)
	t := time.Now()
	h += refNear(refLaps) + refFarWalk()
	d := time.Since(t)
	refSink.Add(h)
	return d
}

// refAllCPUs times the reference kernel on every allowed CPU at once and
// returns the mean, for work that runs on a pool the benchmark does not
// own.
func refAllCPUs(cpus []int) time.Duration {
	times := make([]time.Duration, len(cpus))
	var wg sync.WaitGroup
	for i, cpu := range cpus {
		wg.Add(1)
		go func(i, cpu int) {
			defer wg.Done()
			onCPU(cpu, func() { times[i] = refTime() })
		}(i, cpu)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / time.Duration(len(times))
}

// gauge times the reference kernel around consecutive pieces of work of
// one worker.
type gauge struct {
	measure func() time.Duration
	last    time.Duration // the reading after the previous piece
}

// around runs f and returns the reference time f is rescaled by: the mean
// of the readings just before and just after it. The reading after one
// piece serves as the reading before the next.
func (g *gauge) around(f func()) time.Duration {
	if g.last == 0 {
		g.last = g.measure()
	}
	before := g.last
	f()
	g.last = g.measure()
	return (before + g.last) / 2
}

// rescale converts d, taken while the reference kernel took ref, to the
// reference speed; ref 0 leaves d as measured.
func rescale(d, ref time.Duration) time.Duration {
	if ref <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refNominal) / float64(ref))
}
