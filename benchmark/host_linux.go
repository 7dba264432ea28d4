package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity CPU set (up to 1024 CPUs).
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on ([-1]: unknown).
func allowedCPUs() []int {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return []int{-1}
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) == 0 {
		return []int{-1}
	}
	return cpus
}

// onCPU runs f on a thread pinned to cpu and waits for it (cpu -1, or a
// pin the kernel refuses: unpinned). The goroutine never unlocks its
// thread, so the runtime discards the thread when f returns and the pin
// cannot leak to other goroutines.
func onCPU(cpu int, f func()) {
	if cpu < 0 {
		f()
		return
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		var m cpuMask
		m[cpu/64] = 1 << (cpu % 64)
		// An error leaves the thread unpinned, which only costs precision.
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		f()
	}()
	<-done
}

// offHeap returns n zeroed uint32s in an anonymous mapping outside the Go
// heap, so that holding them does not raise the collector's heap goal (and
// with it the program's resident set), or make([]uint32, n) if the kernel
// refuses the mapping.
func offHeap(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}
