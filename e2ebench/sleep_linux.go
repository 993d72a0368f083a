package main

import (
	"runtime"
	"syscall"
	"time"
)

// lockGenerator pins the calling goroutine to its OS thread and sets
// the thread's timer slack to 1 ns, so sleepUntil wakes close to the
// due time. Go's own timers wake up to a millisecond late for short
// sleeps, which would be charged to every open-loop request.
func lockGenerator() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: with the default slack the sleeps only end later,
	// and that lateness is measured and reported.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the locked thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		w := time.Until(t)
		if w <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(w))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(w)
		}
	}
}
