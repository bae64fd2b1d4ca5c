package main

import (
	"runtime"
	"syscall"
	"time"
)

// Open-loop senders sleep with nanosleep on a dedicated thread. time.Sleep
// rounds idle waits up to the netpoller's millisecond timeout, which would
// add up to a millisecond of lateness to every request; nanosleep with a
// 1µs timer slack wakes within microseconds.

// lockPreciseThread pins the calling goroutine to its thread and tightens
// the thread's timer slack. Call the returned function when done.
func lockPreciseThread() (unlock func()) {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	// Best effort: with the default 50µs slack, nanosleep is still far more
	// punctual than time.Sleep.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return runtime.UnlockOSThread
}

// sleepPrecise sleeps until t.
func sleepPrecise(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
