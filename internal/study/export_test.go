package study

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a content digest of the whole dataset — users,
// observations, and churn events. Two builds of the same config must agree
// byte for byte (the determinism probe in the tests).
func (ev *EvolvedDataset) Fingerprint() string {
	h := sha256.New()
	writeStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, u := range ev.Users {
		writeStr(u)
	}
	for _, v := range ev.Vectors {
		writeStr(v.String())
		for _, epoch := range ev.Obs[v] {
			for _, samples := range epoch {
				for _, hash := range samples {
					writeStr(hash)
				}
			}
		}
	}
	for _, epoch := range ev.Events {
		for _, e := range epoch {
			var b byte
			if e.BrowserUpgrade {
				b |= 1
			}
			if e.OSUpgrade {
				b |= 2
			}
			if e.StackShift {
				b |= 4
			}
			h.Write([]byte{b})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
