package main

import (
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// The hosts this benchmark runs on change speed by a quarter to a half over
// minutes, because other tenants share their cores: back-to-back runs of one
// gfre extraction drift together with any CPU work, user and system time
// included. So every timed end-to-end metric is reported at a reference
// speed: the value as measured, times referenceS over the median duration of
// a fixed kernel sampled through the same run. The kernel is the benchmark's
// own code, not gfre's, so no change to gfre can move it. The values as
// measured are printed and recorded as raw.<metric>.

// referenceS is the kernel's duration at the reference speed, about its
// duration on an unloaded 2-core x86-64 virtual machine.
const referenceS = 0.05

// kernelIters sizes the kernel; toy runs use a hundredth of it.
const kernelIters = 200_000

// speedKernel is the fixed reference work: chained SHA-256 hashes feeding a
// map that is dropped whenever it grows past 50k keys, a mix of arithmetic,
// hashing and allocation. It returns how long the work took.
func speedKernel(iters int) time.Duration {
	start := time.Now()
	m := map[uint64][]byte{}
	var h [32]byte
	for i := 0; i < iters; i++ {
		h = sha256.Sum256(h[:])
		k := binary.LittleEndian.Uint64(h[:8]) & 0xffffff
		m[k] = append(m[k][:0], h[:8]...)
		if len(m) > 50_000 {
			m = map[uint64][]byte{}
		}
	}
	return time.Since(start)
}

// sampleSpeed runs the kernel once, between timed phases of a run, and
// records its duration scaled to the full kernel size.
func (e *env) sampleSpeed(r *runResult) {
	iters := pick(e.toy, kernelIters, kernelIters/100)
	r.kernelS = append(r.kernelS, speedKernel(iters).Seconds()*kernelIters/float64(iters))
}

// atReferenceSpeed rescales the run's timed end-to-end metrics to the
// reference speed and keeps the values as measured as raw.<metric>.
func (r *runResult) atReferenceSpeed() {
	k := median(r.kernelS)
	f := referenceS / k
	r.m.set("host.kernel_s", k, "median of %d kernel runs; %g s at the reference speed", len(r.kernelS), referenceS)
	for _, d := range rawMetrics {
		name := d.Name[len("raw."):]
		v, ok := r.m.vals[name]
		if !ok {
			continue
		}
		r.m.set(d.Name, v, "%s", r.m.notes[name])
		r.m.set(name, v*f, "%s; × %.3f to the reference speed", r.m.notes[name], f)
	}
}
