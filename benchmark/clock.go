// clock.go is the benchmark's single wall-clock seam. The nodeterm
// analyzer forbids time.Now everywhere except files named clock.go, so
// every timing the benchmark takes routes through now and since below.
// Timings never feed a digest: the correctness checks compare outputs
// only, so the measured program stays byte-identical however long a
// run takes.
package main

import "time"

// now is the wall clock every measurement reads.
var now = time.Now

// since is time.Since through the seam.
func since(t time.Time) time.Duration { return now().Sub(t) }
