// Package lib exercises gocap in an ordinary library package.
package lib

// Flagged: ad-hoc fan-out bypasses the work-stealing pool.
func spawn(f func()) {
	go f() // want `bare go statement`
}

// Flagged: loops multiply goroutines with input size — one per λ candidate.
func fanOut(fs []func()) {
	for _, f := range fs {
		go f() // want `bare go statement`
	}
}

// OK: long-lived infrastructure, annotated.
func serve(f func()) {
	//hidapvet:allow gocap long-lived engine worker, bounded by EngineOptions.Workers
	go f()
}
