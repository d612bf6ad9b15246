// Package pinuse exercises the chunkpin analyzer: every PinChunk release
// must be kept.
package pinuse

type table interface {
	PinChunk(i int) (chunk, func(), error)
}

type chunk interface {
	NumRows() int
}

// scanPinned is the sanctioned shape: pin, defer the release, scan.
func scanPinned(t table) (int, error) {
	ch, release, err := t.PinChunk(0)
	if err != nil {
		return 0, err
	}
	defer release()
	return ch.NumRows(), nil
}

// scanBlankRelease discards the release: the chunk stays resident forever.
func scanBlankRelease(t table) (int, error) {
	ch, _, err := t.PinChunk(0) // want "release discarded with _"
	if err != nil {
		return 0, err
	}
	return ch.NumRows(), nil
}

// scanLeakedRelease binds the release but never calls or forwards it.
func scanLeakedRelease(t table) (int, error) {
	ch, release, err := t.PinChunk(0) // want "release release is never used after the pin"
	if err != nil {
		return 0, err
	}
	return ch.NumRows(), nil
}

// scanForwarded hands the release to the caller: keeping it counts.
func scanForwarded(t table) (chunk, func(), error) {
	ch, release, err := t.PinChunk(0)
	if err != nil {
		return nil, nil, err
	}
	return ch, release, nil
}
