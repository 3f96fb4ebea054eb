package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID from <time.h>.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used so far, to the
// nanosecond: user plus system time of all its threads. Every host time
// the benchmark reports is a difference of two readings. Linux leaves out
// of it the time the hypervisor gave the virtual CPU to another guest
// (steal), which on a shared host stretches wall-clock times by as much
// as a third from one run to the next.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
