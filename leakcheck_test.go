package redundancy_test

import (
	"runtime"
	"testing"
	"time"
)

// checkNoGoroutineLeak notes the goroutine count now and returns the
// check to run once everything under test is shut down: within three
// seconds the count must settle back to at most two above the count
// noted, or t fails with every goroutine's stack.
//
//	defer checkNoGoroutineLeak(t)()
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			runtime.GC()
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
	}
}
