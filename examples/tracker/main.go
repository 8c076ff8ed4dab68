// Tracker demo: the paper's §3.2 graph-based collation as a deployable
// visitor-identification system.
//
//	go run ./examples/tracker
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
)

func main() {
	// A small population visits a fingerprinting site several times each.
	devices := population.Sample(population.Config{Seed: 7, N: 40})
	jitter := platform.DefaultJitter()
	cache := vectors.NewCache()
	tracker := core.NewTracker()
	rng := rand.New(rand.NewSource(1))

	// Enrollment: every device visits 5 times, leaving Hybrid fingerprints.
	for _, d := range devices {
		runner := vectors.NewRunner(d.AudioTraits(), d.SampleRate)
		for visit := 0; visit < 5; visit++ {
			off := jitter.Offset(rng, d.Load, vectors.Hybrid)
			fp, err := cache.Run(d.AudioStackKey(), runner, vectors.Hybrid, off)
			if err != nil {
				log.Fatal(err)
			}
			tracker.Observe(d.ID, fp.Hash)
		}
	}
	st := tracker.Stats()
	fmt.Printf("enrolled %d visitors → %d identities (%d unique, %d elementary fingerprints)\n",
		st.Visitors, st.Identities, st.Unique, st.Fingerprints)

	// Recognition: each device returns anonymously; can we place it in its
	// original identity cluster?
	recognized := 0
	for _, d := range devices {
		runner := vectors.NewRunner(d.AudioTraits(), d.SampleRate)
		off := jitter.Offset(rng, d.Load, vectors.Hybrid)
		fp, err := cache.Run(d.AudioStackKey(), runner, vectors.Hybrid, off)
		if err != nil {
			log.Fatal(err)
		}
		want, _ := tracker.IdentityOf(d.ID)
		if got, ok := tracker.Identify([]string{fp.Hash}); ok && got == want {
			recognized++
		}
	}
	fmt.Printf("returning visitors recognized: %d/%d\n", recognized, len(devices))
}
