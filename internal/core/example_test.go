package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/webaudio"
)

// ExampleFingerprinter shows the one-device API: run the classic Dynamics
// Compressor vector against a reference audio stack.
func ExampleFingerprinter() {
	fp := core.NewFingerprinter(webaudio.DefaultTraits(), 44100)
	print1, _ := fp.FingerprintAll(0)
	print2, _ := fp.FingerprintAll(0)
	fmt.Println("vector:", print1[0].Vector)
	fmt.Println("stable:", print1[0].Hash == print2[0].Hash)
	// Output:
	// vector: DC
	// stable: true
}

// ExampleTracker shows the fingerprinter-side identity system: enrollment,
// recognition, and a §3.2-style cluster merge.
func ExampleTracker() {
	tr := core.NewTracker()
	tr.Observe("U1", "eFP1", "eFP3")
	tr.Observe("U2", "eFP3", "eFP5") // shares eFP3 with U1 → same identity
	tr.Observe("U3", "eFP7")

	u1, _ := tr.IdentityOf("U1")
	u2, _ := tr.IdentityOf("U2")
	u3, _ := tr.IdentityOf("U3")
	fmt.Println("U1 and U2 collide:", u1 == u2)
	fmt.Println("U3 is distinct:", u3 != u1)

	id, ok := tr.Identify([]string{"eFP5"})
	fmt.Println("returning visitor matched:", ok && id == u2)
	fmt.Println("identities:", tr.Stats().Identities)
	// Output:
	// U1 and U2 collide: true
	// U3 is distinct: true
	// returning visitor matched: true
	// identities: 2
}
