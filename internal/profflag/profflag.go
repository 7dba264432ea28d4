// Package profflag gives the command-line tools their -cpuprofile and
// -memprofile flags, written with the standard runtime/pprof.
package profflag

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile paths registered on a flag set.
type Flags struct {
	cpu, mem *string
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) Flags {
	return Flags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the whole run to `FILE` (go tool pprof)"),
		mem: fs.String("memprofile", "", "write a heap profile, taken after a GC at exit, to `FILE` (go tool pprof)"),
	}
}

// Start creates the named profile files and starts the CPU profile, so
// an unwritable path fails before any work is done. stop ends the CPU
// profile, writes the heap profile and closes both files; call it once,
// when the command's work is done. With neither flag set, Start and stop
// do nothing.
func (f Flags) Start() (stop func() error, err error) {
	var cpu, mem *os.File
	if *f.mem != "" {
		if mem, err = os.Create(*f.mem); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC() // the heap profile reports the state as of the last GC
			if err := errors.Join(pprof.WriteHeapProfile(mem), mem.Close()); err != nil {
				errs = append(errs, fmt.Errorf("-memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
