package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/activity"
	"repro/internal/encoding"
)

// magic identifies serialized COHANA tables and versions the format.
const magic = "COHANA1\n"

// schemaJSON is the portable schema representation embedded in the file
// header.
type schemaJSON struct {
	Cols []colJSON `json:"cols"`
}

type colJSON struct {
	Name string `json:"name"`
	Type uint8  `json:"type"`
	Kind uint8  `json:"kind"`
}

// schemaToJSON converts a schema to its portable representation.
func schemaToJSON(schema *activity.Schema) schemaJSON {
	sj := schemaJSON{}
	for _, c := range schema.Cols() {
		sj.Cols = append(sj.Cols, colJSON{Name: c.Name, Type: uint8(c.Type), Kind: uint8(c.Kind)})
	}
	return sj
}

// schemaFromJSON validates a portable schema back into an activity.Schema.
func schemaFromJSON(sj schemaJSON) (*activity.Schema, error) {
	cols := make([]activity.Col, len(sj.Cols))
	for i, c := range sj.Cols {
		cols[i] = activity.Col{Name: c.Name, Type: activity.ColType(c.Type), Kind: activity.ColKind(c.Kind)}
	}
	return activity.NewSchema(cols)
}

// Serialize encodes the table into a self-contained byte slice in the legacy
// single-table format:
//
//	magic | schema | counts | global dictionaries and ranges | chunks
//
// The layout keeps each chunk's columns contiguous so a sequential scan of a
// chunk touches a compact byte range, mirroring the paper's chunk files. The
// user column's dictionary is every chunk's users in order; cold chunks are
// loaded for it, and held until the bytes are written.
func (st *Table) Serialize() ([]byte, error) {
	chunks := make([]*Chunk, st.NumChunks())
	users := make([]string, 0, st.numUsers)
	for i := range chunks {
		ch, release, err := st.PinChunk(i)
		if err != nil {
			return nil, err
		}
		defer release()
		chunks[i] = ch
		users = append(users, ch.userVals...)
	}
	dst := []byte(magic)
	sb, err := json.Marshal(schemaToJSON(st.schema))
	if err != nil {
		return nil, fmt.Errorf("storage: marshaling schema: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(sb)))
	dst = append(dst, sb...)
	dst = binary.AppendUvarint(dst, uint64(st.numRows))
	dst = binary.AppendUvarint(dst, uint64(st.numUsers))
	dst = binary.AppendUvarint(dst, uint64(st.chunkSize))
	dst = binary.AppendUvarint(dst, uint64(len(chunks)))
	for c := 0; c < st.schema.NumCols(); c++ {
		switch {
		case c == st.schema.UserCol():
			dst = encoding.BuildDict(users).AppendTo(dst)
		case st.schema.IsStringCol(c):
			dst = st.dicts[c].AppendTo(dst)
		default:
			dst = binary.AppendVarint(dst, st.globalMin[c])
			dst = binary.AppendVarint(dst, st.globalMax[c])
		}
	}
	for _, ch := range chunks {
		dst = binary.AppendUvarint(dst, uint64(ch.numRows))
		dst = ch.users.AppendTo(dst)
		for c := 0; c < st.schema.NumCols(); c++ {
			if c == st.schema.UserCol() {
				continue
			}
			if st.schema.IsStringCol(c) {
				dst = ch.cols[c].cdict.AppendTo(dst)
				dst = ch.cols[c].ids.AppendTo(dst)
			} else {
				dst = ch.cols[c].ints.AppendTo(dst)
			}
		}
	}
	return dst, nil
}

// Deserialize decodes a table produced by Serialize into a table of perm
// chunks. Each chunk's user runs must carry the next ids of the user
// dictionary in order, one run per user, and together cover it.
func Deserialize(src []byte) (*Table, error) {
	if len(src) < len(magic) || string(src[:len(magic)]) != magic {
		return nil, fmt.Errorf("storage: bad magic (not a COHANA table)")
	}
	src = src[len(magic):]
	slen, k := binary.Uvarint(src)
	if k <= 0 || uint64(len(src)-k) < slen {
		return nil, fmt.Errorf("storage: truncated schema")
	}
	src = src[k:]
	var sj schemaJSON
	if err := json.Unmarshal(src[:slen], &sj); err != nil {
		return nil, fmt.Errorf("storage: unmarshaling schema: %w", err)
	}
	src = src[slen:]
	schema, err := schemaFromJSON(sj)
	if err != nil {
		return nil, fmt.Errorf("storage: invalid schema in file: %w", err)
	}
	st := &Table{
		schema:    schema,
		dicts:     make([]*encoding.Dict, schema.NumCols()),
		globalMin: make([]int64, schema.NumCols()),
		globalMax: make([]int64, schema.NumCols()),
	}
	var vals [4]uint64
	for i := range vals {
		v, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, fmt.Errorf("storage: truncated header")
		}
		vals[i] = v
		src = src[k:]
	}
	numRows, numUsers := vals[0], vals[1]
	st.chunkSize = int(vals[2])
	nchunks := vals[3]
	for c := 0; c < schema.NumCols(); c++ {
		if schema.IsStringCol(c) {
			d, rest, err := encoding.DecodeDict(src)
			if err != nil {
				return nil, fmt.Errorf("storage: column %d dictionary: %w", c, err)
			}
			st.dicts[c], src = d, rest
		} else {
			mn, k := binary.Varint(src)
			if k <= 0 {
				return nil, fmt.Errorf("storage: truncated global min for column %d", c)
			}
			src = src[k:]
			mx, k := binary.Varint(src)
			if k <= 0 {
				return nil, fmt.Errorf("storage: truncated global max for column %d", c)
			}
			src = src[k:]
			st.globalMin[c], st.globalMax[c] = mn, mx
		}
	}
	// The user dictionary becomes the chunks' user lists; tables keep none.
	users := st.dicts[schema.UserCol()]
	st.dicts[schema.UserCol()] = nil
	for i := 1; i < users.Len(); i++ {
		if users.Value(uint64(i)) <= users.Value(uint64(i-1)) {
			return nil, fmt.Errorf("storage: user dictionary not strictly ascending at %d", i)
		}
	}
	for i := uint64(0); i < nchunks; i++ {
		ch := &Chunk{cols: make([]chunkColumn, schema.NumCols()), births: &birthIndexes{}}
		n, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, fmt.Errorf("storage: truncated chunk %d header", i)
		}
		src = src[k:]
		ch.numRows = int(n)
		runs, rest, err := encoding.DecodeRLEBytes(src)
		if err != nil {
			return nil, fmt.Errorf("storage: chunk %d user column: %w", i, err)
		}
		ch.users, src = runs, rest
		base, nusers := uint64(st.numUsers), runs.NumRuns()
		if nusers == 0 || uint64(runs.Len()) != n || base+uint64(nusers) > uint64(users.Len()) {
			return nil, fmt.Errorf("storage: chunk %d user runs do not fit the table", i)
		}
		for r := 0; r < nusers; r++ {
			if runs.Run(r).Value != base+uint64(r) {
				return nil, fmt.Errorf("storage: chunk %d user runs out of dictionary order", i)
			}
		}
		ch.userVals, ch.userBase = users.Values()[base:base+uint64(nusers)], base
		for c := 0; c < schema.NumCols(); c++ {
			if c == schema.UserCol() {
				continue
			}
			if schema.IsStringCol(c) {
				cd, rest, err := encoding.DecodeChunkDict(src)
				if err != nil {
					return nil, fmt.Errorf("storage: chunk %d column %d dict: %w", i, c, err)
				}
				src = rest
				ids, rest, err := encoding.DecodeBitPacked(src)
				if err != nil {
					return nil, fmt.Errorf("storage: chunk %d column %d ids: %w", i, c, err)
				}
				src = rest
				ch.cols[c] = chunkColumn{cdict: cd, ids: &ids}
			} else {
				f, rest, err := encoding.DecodeFrameOfRef(src)
				if err != nil {
					return nil, fmt.Errorf("storage: chunk %d column %d ints: %w", i, c, err)
				}
				src = rest
				ch.cols[c] = chunkColumn{ints: &f}
			}
		}
		st.appendPerm(ch)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("storage: %d trailing bytes", len(src))
	}
	if uint64(st.numRows) != numRows || uint64(st.numUsers) != numUsers || st.numUsers != users.Len() {
		return nil, fmt.Errorf("storage: header counts %d rows / %d users, chunks hold %d / %d of %d",
			numRows, numUsers, st.numRows, st.numUsers, users.Len())
	}
	return st, nil
}

// WriteFile serializes the table to path.
func (st *Table) WriteFile(path string) error {
	buf, err := st.Serialize()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadFile loads a table written by WriteFile.
func ReadFile(path string) (*Table, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Deserialize(buf)
}
