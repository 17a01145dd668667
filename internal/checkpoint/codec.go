package checkpoint

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"swtnas/internal/obs"
	"swtnas/internal/tensor"
)

// Encoding selects how checkpoints are serialized. The paper's conclusion
// proposes complementing weight transfer with efficient DNN checkpointing
// (VELOC-style I/O reduction, DeepSZ-style lossy compression); these
// encodings implement the two standard levers — precision truncation and
// byte-stream compression — on the SWTC format.
type Encoding int

// Supported encodings.
const (
	// EncodingRaw is the version-1 float64 stream (the default).
	EncodingRaw Encoding = iota
	// EncodingF32 stores tensor data as float32 (lossy, ~2x smaller).
	EncodingF32
	// EncodingGzip wraps the float64 stream in DEFLATE.
	EncodingGzip
	// EncodingF32Gzip combines both (smallest, lossy).
	EncodingF32Gzip
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncodingRaw:
		return "raw"
	case EncodingF32:
		return "f32"
	case EncodingGzip:
		return "gzip"
	case EncodingF32Gzip:
		return "f32+gzip"
	}
	return fmt.Sprintf("Encoding(%d)", int(e))
}

func (e Encoding) float32Data() bool { return e == EncodingF32 || e == EncodingF32Gzip }
func (e Encoding) compressed() bool  { return e == EncodingGzip || e == EncodingF32Gzip }
func (e Encoding) valid() bool       { return e >= EncodingRaw && e <= EncodingF32Gzip }

const (
	version2 = uint32(2)
	version3 = uint32(3)
)

// EncodeWith writes the model using the selected encoding. For float64
// models, EncodingRaw produces the version-1 stream (readable by any Decode)
// and the other encodings write a version-2 stream with an encoding header.
// A model tagged with a non-default DType always writes a version-3 stream,
// which carries the dtype so it survives the round trip.
func (m *Model) EncodeWith(w io.Writer, enc Encoding) error {
	if !enc.valid() {
		return fmt.Errorf("checkpoint: invalid encoding %d", enc)
	}
	if !m.DType.Valid() {
		return fmt.Errorf("checkpoint: invalid model dtype %d", uint8(m.DType))
	}
	if !obs.Enabled() {
		return m.encodeWith(w, enc)
	}
	t := mEncodeSeconds.Start()
	cw := &countingWriter{w: w}
	err := m.encodeWith(cw, enc)
	if err == nil {
		t.Stop()
		mEncodeCalls.Inc()
		mEncodeBytes.Add(cw.n)
	}
	return err
}

// encodeWith dispatches to the version-1, version-2 or version-3 writer.
func (m *Model) encodeWith(w io.Writer, enc Encoding) error {
	if m.DType != tensor.F64 {
		return m.encodeV3(w, enc)
	}
	if enc == EncodingRaw {
		return m.encodeRaw(w)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeU32(bw, version2); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(enc)); err != nil {
		return err
	}
	var payload io.Writer = bw
	var gz *gzip.Writer
	if enc.compressed() {
		gz = gzip.NewWriter(bw)
		payload = gz
	}
	if err := m.writeBody(payload, enc.float32Data()); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// encodeV3 writes the version-3 stream: magic, version, dtype, encoding,
// then the body at the dtype's native width. A tensor.F32 model stores
// 4 bytes per element without loss — an f32-trained network's weights are
// f32-representable by construction — so the former "EncodingF32 cast" is
// promoted to a first-class stored dtype with an exact round trip.
func (m *Model) encodeV3(w io.Writer, enc Encoding) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeU32(bw, version3); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(m.DType)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(enc)); err != nil {
		return err
	}
	var payload io.Writer = bw
	var gz *gzip.Writer
	if enc.compressed() {
		gz = gzip.NewWriter(bw)
		payload = gz
	}
	if err := m.writeBody(payload, m.DType == tensor.F32 || enc.float32Data()); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (m *Model) writeBody(w io.Writer, f32 bool) error {
	if err := writeIntSlice(w, m.Arch); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, math.Float64bits(m.Score)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(m.Groups))); err != nil {
		return err
	}
	for _, g := range m.Groups {
		if err := writeString(w, g.Layer); err != nil {
			return err
		}
		if err := writeIntSlice(w, g.Signature); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(g.Tensors))); err != nil {
			return err
		}
		for _, t := range g.Tensors {
			if err := writeString(w, t.Name); err != nil {
				return err
			}
			if err := writeIntSlice(w, t.Shape); err != nil {
				return err
			}
			if tensor.Numel(t.Shape) != len(t.Data) {
				return fmt.Errorf("checkpoint: tensor %q data/shape mismatch", t.Name)
			}
			if f32 {
				for _, v := range t.Data {
					if err := binary.Write(w, binary.LittleEndian, math.Float32bits(float32(v))); err != nil {
						return err
					}
				}
			} else {
				for _, v := range t.Data {
					if err := binary.Write(w, binary.LittleEndian, math.Float64bits(v)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// decodeV2 parses the version-2 body (called by Decode after the version
// field identifies the stream).
func decodeV2(br io.Reader) (*Model, error) {
	encU, err := readU32(br)
	if err != nil {
		return nil, err
	}
	enc := Encoding(encU)
	if !enc.valid() || enc == EncodingRaw {
		return nil, fmt.Errorf("checkpoint: invalid v2 encoding %d", encU)
	}
	var payload io.Reader = br
	var gz *gzip.Reader
	if enc.compressed() {
		var err error
		gz, err = gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: opening gzip payload: %w", err)
		}
		defer gz.Close()
		payload = gz
	}
	m, err := readBody(payload, enc.float32Data())
	if err != nil {
		return nil, err
	}
	if gz != nil {
		// Drain to EOF so the gzip checksum is verified; a truncated or
		// corrupted stream must not decode silently.
		var tail [1]byte
		if _, err := gz.Read(tail[:]); err != io.EOF {
			return nil, fmt.Errorf("checkpoint: gzip payload not cleanly terminated: %v", err)
		}
	}
	return m, nil
}

// decodeV3 parses the version-3 body: dtype, encoding, then the payload at
// the width the header implies. EncodingRaw is legal here (unlike v2) —
// it is the canonical uncompressed form of an F32 model.
func decodeV3(br io.Reader) (*Model, error) {
	dtU, err := readU32(br)
	if err != nil {
		return nil, err
	}
	dt := tensor.DType(uint8(dtU))
	if dtU > 0xff || !dt.Valid() {
		return nil, fmt.Errorf("checkpoint: invalid v3 dtype %d", dtU)
	}
	encU, err := readU32(br)
	if err != nil {
		return nil, err
	}
	enc := Encoding(encU)
	if !enc.valid() {
		return nil, fmt.Errorf("checkpoint: invalid v3 encoding %d", encU)
	}
	var payload io.Reader = br
	var gz *gzip.Reader
	if enc.compressed() {
		var err error
		gz, err = gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: opening gzip payload: %w", err)
		}
		defer gz.Close()
		payload = gz
	}
	m, err := readBody(payload, dt == tensor.F32 || enc.float32Data())
	if err != nil {
		return nil, err
	}
	m.DType = dt
	if gz != nil {
		var tail [1]byte
		if _, err := gz.Read(tail[:]); err != io.EOF {
			return nil, fmt.Errorf("checkpoint: gzip payload not cleanly terminated: %v", err)
		}
	}
	return m, nil
}

// decodeChunk is the largest tensor buffer readBody allocates before the
// stream has supplied the data to fill it.
const decodeChunk = 1 << 16

func readBody(r io.Reader, f32 bool) (*Model, error) {
	m := &Model{}
	var err error
	if m.Arch, err = readIntSlice(r); err != nil {
		return nil, err
	}
	var bits uint64
	if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
		return nil, err
	}
	m.Score = math.Float64frombits(bits)
	nGroups, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nGroups > maxElems {
		return nil, fmt.Errorf("checkpoint: implausible group count %d", nGroups)
	}
	for gi := uint32(0); gi < nGroups; gi++ {
		var g Group
		if g.Layer, err = readString(r); err != nil {
			return nil, err
		}
		if g.Signature, err = readIntSlice(r); err != nil {
			return nil, err
		}
		nT, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if nT > maxElems {
			return nil, fmt.Errorf("checkpoint: implausible tensor count %d", nT)
		}
		for ti := uint32(0); ti < nT; ti++ {
			var t Tensor
			if t.Name, err = readString(r); err != nil {
				return nil, err
			}
			if t.Shape, err = readIntSlice(r); err != nil {
				return nil, err
			}
			n := tensor.Numel(t.Shape)
			if n < 0 || n > maxElems {
				return nil, fmt.Errorf("checkpoint: implausible tensor size %d", n)
			}
			// The buffer grows with the data actually read, so a stream that
			// declares a huge tensor but is short allocates only what it
			// carries, not the declared size.
			t.Data = make([]float64, 0, min(n, decodeChunk))
			for len(t.Data) < n {
				var v float64
				if f32 {
					var b32 uint32
					if err := binary.Read(r, binary.LittleEndian, &b32); err != nil {
						return nil, err
					}
					v = float64(math.Float32frombits(b32))
				} else {
					if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
						return nil, err
					}
					v = math.Float64frombits(bits)
				}
				t.Data = append(t.Data, v)
			}
			g.Tensors = append(g.Tensors, t)
		}
		m.Groups = append(m.Groups, g)
	}
	return m, nil
}
