package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

// pinOneCPU moves every thread of the benchmark onto the last CPU it
// may run on and returns that CPU. Threads and processes started
// afterwards inherit the mask, so router-http's servers run there too:
// each hop of a request is then a context switch on a busy CPU rather
// than a wake-up of an idle one, whose cost on a shared VM varies from
// run to run, and the other CPUs stay free for the rest of the machine.
func pinOneCPU() (int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty CPU set")
	}
	m = cpuMask{}
	m[cpu/64] = 1 << (cpu % 64)
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0, err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		// A thread that exited meanwhile is skipped (ESRCH).
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
			return 0, fmt.Errorf("sched_setaffinity %d: %w", tid, e)
		}
	}
	return cpu, nil
}
