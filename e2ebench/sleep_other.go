//go:build !linux

package main

import (
	"runtime"
	"time"
)

func lockGenerator() { runtime.LockOSThread() }

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
