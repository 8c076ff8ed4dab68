package collate

import "sync"

// Interner gives every distinct string of a space one dense int32 ID, the
// same for every caller: one served plane's shard engines intern through
// one Interner, so their fingerprint IDs and surface IDs mean the same
// thing on every shard and a merge needs no translation. Spaces 0 to
// NumVectors-1 hold the fingerprint hashes of the audio vectors, in
// vectors.All order (which is vectors.ID order); space NumVectors holds
// surface values, where "" is always ID 0.
//
// IDs are dense per space, 0 to Len-1, and never change. Which value gets
// which ID follows the order in which callers first intern the values.
//
// Safe for concurrent use. Each call takes the interner's lock once to
// read, and Intern takes it once more to write only when some value is
// new, so callers resolve a whole batch per call, never a value at a time.
// An engine calls in while holding its own lock, and the interner calls
// nothing but the caller's key function, which must take no lock, so the
// lock order is always engine, then interner.
type Interner struct {
	mu     sync.RWMutex
	spaces [NumVectors + 1]map[string]int32
}

// NewInterner returns an interner whose surface space holds "" as ID 0
// and whose other spaces are empty.
func NewInterner() *Interner {
	in := &Interner{}
	for s := range in.spaces {
		in.spaces[s] = map[string]int32{}
	}
	in.spaces[NumVectors][""] = 0
	return in
}

// Intern sets each ids[i] to the ID of the value key(i) names: v in space
// s, where s, v = key(i), or -1 where s is negative. A value the space
// does not hold yet gets the space's next ID, one per distinct value.
// key is called at least once per index and must answer the same each
// time; ids must not be modified during the call.
func (in *Interner) Intern(ids []int32, key func(i int) (space int, v string)) {
	const missing = -2
	in.mu.RLock()
	anyMissing := in.lookup(ids, key, missing)
	in.mu.RUnlock()
	if !anyMissing {
		return
	}
	// Only the values the read found missing are resolved again: another
	// caller may have inserted them since, and a batch may repeat one.
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range ids {
		if ids[i] != missing {
			continue
		}
		s, v := key(i)
		m := in.spaces[s]
		id, ok := m[v]
		if !ok {
			id = int32(len(m))
			m[v] = id
		}
		ids[i] = id
	}
}

// Lookup is Intern without inserting: ids[i] is -1 also where the space
// does not hold the value, so looking up unseen values grows nothing.
func (in *Interner) Lookup(ids []int32, key func(i int) (space int, v string)) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	in.lookup(ids, key, -1)
}

// lookup is Lookup under a held lock, setting ids[i] to missing where the
// space does not hold the value. It reports whether any value was missing.
func (in *Interner) lookup(ids []int32, key func(i int) (space int, v string), missing int32) (anyMissing bool) {
	for i := range ids {
		s, v := key(i)
		if s < 0 {
			ids[i] = -1
			continue
		}
		id, ok := in.spaces[s][v]
		if !ok {
			id, anyMissing = missing, true
		}
		ids[i] = id
	}
	return anyMissing
}

// Len returns the number of values space s holds, so its IDs are 0 to
// Len(s)-1.
func (in *Interner) Len(s int) int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.spaces[s])
}
