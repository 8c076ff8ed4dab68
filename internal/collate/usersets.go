package collate

import "slices"

// NumVectors is the number of audio vectors a UserSets holds a set for
// and an Interner holds a fingerprint space for: the paper's seven,
// indexed in vectors.ID order, which is also the order of vectors.All
// (usersets_test.go pins both).
const NumVectors = 7

// UserSets is one user's side of the per-vector collation graphs: for
// each audio vector, the sorted IDs of the distinct fingerprints the user
// emitted. The vectors' sets lie back to back in vector order in one
// array; vector v's set is ids[end[v-1]:end[v]], starting at 0 for the
// first. One array per user rather than one per (user, vector) is what
// keeps a served plane's per-user state small. The zero value holds no
// IDs. Both the streaming engine and the verify engine keep one per user.
type UserSets struct {
	end [NumVectors]int32
	ids []int32
}

// Set returns the user's sorted ID set on vector v, which aliases the
// user's array: it is valid until the next Insert, and the caller must
// not modify it.
func (u *UserSets) Set(v int) []int32 {
	var lo int32
	if v > 0 {
		lo = u.end[v-1]
	}
	return u.ids[lo:u.end[v]]
}

// Insert adds id to the user's set on vector v unless it is there, and
// reports whether it was new.
func (u *UserSets) Insert(v int, id int32) bool {
	set := u.Set(v)
	i, found := slices.BinarySearch(set, id)
	if found {
		return false
	}
	j := int(u.end[v]) - len(set) + i
	u.ids = append(u.ids, 0)
	copy(u.ids[j+1:], u.ids[j:])
	u.ids[j] = id
	for w := v; w < NumVectors; w++ {
		u.end[w]++
	}
	return true
}
