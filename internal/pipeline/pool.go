package pipeline

import (
	"context"
	"sync"
)

// forEach runs fn(0..n-1) with at most `workers` goroutines and returns
// the first error in task order.
//
// Determinism contract: with workers == 1 the tasks run strictly
// sequentially on the calling goroutine. With workers > 1 the tasks may
// run in any order, so fn must write its result into a slot indexed by i
// and must not depend on, or mutate, state shared with other tasks. On
// success the set of executed tasks is always exactly {0..n-1}, so any
// reduction over the index-addressed results is order-independent.
//
// Cancellation contract: when ctx is cancelled, no new task starts, the
// pool drains promptly, all worker goroutines exit before forEach
// returns, and ctx.Err() is returned. When a task returns an error, the
// remaining tasks are cancelled and the error with the smallest task
// index among the tasks that ran is returned.
//
// Panic contract: a panicking task panics forEach on the calling
// goroutine, at every worker count. With workers > 1 the first panic is
// captured, the pool drains as on an error, and the value is re-panicked
// after every worker has exited, so a caller's recover (stageAttempt's
// "stage panicked") sees it instead of the process dying.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = resolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	tasks := make(chan int)
	errs := make([]error, n) // one slot per task: no locking, no ordering races
	var (
		wg       sync.WaitGroup
		panicked sync.Once
		panicVal any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Do(func() { panicVal = r })
					cancel()
				}
			}()
			for i := range tasks {
				if poolCtx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case tasks <- i:
		case <-poolCtx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()
	if panicVal != nil {
		//edlint:ignore libpanic re-raises a task's panic on the calling goroutine, where stageAttempt recovers it as a ClassFatal error
		panic(panicVal)
	}

	// The enclosing context's cancellation outranks task errors: a caller
	// that cancelled mid-run must see its own ctx.Err(), not whichever
	// task happened to fail while draining.
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
