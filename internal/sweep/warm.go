package sweep

import (
	"errors"
	"runtime"
	"sync"
)

// Warm-start execution: grid points that share an expensive construction
// prefix (the same fabric, cluster and algorithm stack — everything except
// the seed and the perturbation) can share one built instance per worker
// and fork it per point instead of rebuilding from scratch. The kernel
// supplies the factoring; RunWarm supplies the scheduling.
//
// Determinism contract: a forked continuation must produce the same Record
// a cold run of the same spec would, which makes RunWarm's output — like
// Run's — byte-identical at every worker count. The harness kernels honor
// that by rewinding the instance's engine and model state to the
// construction snapshot and reseeding the RNG tree to the point seed, so
// which worker (and which triggering spec) built the instance is
// unobservable.

// Warmable is a sweep kernel factored into a shared warm prefix and a
// per-point continuation.
type Warmable interface {
	// WarmKey returns the prefix identity of a spec: points with equal keys
	// may share one instance per worker. The key must cover everything the
	// build consumes except the point seed — if two specs with the same key
	// could construct differently (a telemetry gate, say), the
	// gate's outcome belongs in the key. An empty key opts the point out of
	// sharing; it runs cold.
	WarmKey(Spec) string
	// Build constructs the warm instance for the given spec's key group.
	// It must leave the instance at its fork point (typically construction
	// quiescence, with a snapshot taken).
	Build(Spec) (Instance, error)
	// Cold runs one point without sharing, for specs with an empty key.
	Cold(Spec) (Record, error)
}

// Instance is one built warm prefix; Run forks it to a point's state and
// executes the continuation. Instances are confined to a single worker, so
// Run needs no locking.
type Instance interface {
	Run(Spec) (Record, error)
}

// RunWarm executes the kernel over the specs on a worker pool, sharing
// warm instances between same-key points that land on the same worker.
// Records are collected in spec order; workers <= 0 selects GOMAXPROCS.
// Like Map, remaining work completes after an error and per-point errors
// join in index order, so the reported outcome is scheduling-independent.
func RunWarm(specs []Spec, workers int, k Warmable) ([]Record, error) {
	n := len(specs)
	if n == 0 {
		return nil, nil
	}
	out := make([]Record, n)
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := make(map[string]Instance)
			for i := range work {
				out[i], errs[i] = warmPoint(k, specs[i], cache)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// warmPoint runs one spec against the worker-local instance cache.
func warmPoint(k Warmable, s Spec, cache map[string]Instance) (rec Record, err error) {
	defer func() {
		if err != nil {
			err = &PointError{Spec: s, Err: err}
		}
	}()
	key := k.WarmKey(s)
	if key == "" {
		return k.Cold(s)
	}
	inst, ok := cache[key]
	if !ok {
		// A failed build is not cached: the next same-key point retries and
		// reports the same deterministic error, matching the cold behavior
		// of one error per point.
		inst, err = k.Build(s)
		if err != nil {
			return Record{}, err
		}
		cache[key] = inst
	}
	return inst.Run(s)
}
