//go:build !linux

package main

// allowedCPUs and onCPU pin set-up timing to each CPU on Linux only;
// elsewhere set-ups run unpinned.
func allowedCPUs() []int { return []int{-1} }

func onCPU(_ int, f func()) { f() }

// offHeap allocates on the Go heap outside Linux.
func offHeap(n int) []uint32 { return make([]uint32, n) }
