// Package snapshot serializes trained network parameters and solver state
// to a compact binary format, mirroring Caffe's snapshotting: training can
// be paused, saved, resumed and the learned coefficients (the output of
// the training algorithm, Algorithm 1) shipped to an evaluation process.
//
// The format is versioned and self-describing:
//
//	magic "CGDNN" | version u8 | section count u32
//	per section: name (u16 len + bytes) | rank u8 | dims (u32 each) |
//	             float32 payload (little endian) | crc32 u32 (v2 only)
//
// Version 2 (the current write format) appends an IEEE CRC32 of each
// section's serialized bytes, so any single-byte corruption of a section
// is detected at load time instead of silently producing garbage
// coefficients. Version 1 files (no checksums) remain readable.
//
// Network parameters are stored by their ParamNames; solver snapshots
// additionally store the iteration counter and per-parameter history
// (momentum / accumulated squared gradients).
//
// All file-writing entry points are crash-consistent: they write to a
// temporary file in the destination directory, fsync it, and atomically
// rename it over the target, so a crash mid-save can never leave a torn
// snapshot under the final name (see ROBUSTNESS.md).
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/solver"
)

var magic = [5]byte{'C', 'G', 'D', 'N', 'N'}

const (
	version1 = 1 // no per-section checksums
	version2 = 2 // per-section CRC32 trailer
	// version is the format written by this package.
	version = version2
)

// section is one named tensor in the file.
type section struct {
	name  string
	shape []int
	data  []float32
}

// crcWriter tees everything written through it into an IEEE CRC32.
type crcWriter struct {
	w   io.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p) // never returns an error
	return cw.w.Write(p)
}

// crcReader tees everything read through it into an IEEE CRC32.
type crcReader struct {
	r   io.Reader
	crc hash.Hash32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc.Write(p[:n])
	return n, err
}

// writeSectionBody serializes one section (everything but the checksum).
func writeSectionBody(w io.Writer, s section) error {
	if len(s.name) > math.MaxUint16 {
		return fmt.Errorf("snapshot: section name too long (%d bytes)", len(s.name))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s.name))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, s.name); err != nil {
		return err
	}
	if len(s.shape) > 255 {
		return fmt.Errorf("snapshot: rank %d too large", len(s.shape))
	}
	if _, err := w.Write([]byte{byte(len(s.shape))}); err != nil {
		return err
	}
	for _, d := range s.shape {
		if d < 0 || d > math.MaxUint32 {
			return fmt.Errorf("snapshot: dimension %d out of range", d)
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, s.data)
}

func writeSections(w io.Writer, secs []section) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(secs))); err != nil {
		return err
	}
	for _, s := range secs {
		cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
		if err := writeSectionBody(cw, s); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, cw.crc.Sum32()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readSectionBody parses one section (everything but the checksum) from r.
func readSectionBody(r io.Reader) (section, error) {
	var s section
	var nameLen uint16
	if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
		return s, err
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return s, err
	}
	var rank [1]byte
	if _, err := io.ReadFull(r, rank[:]); err != nil {
		return s, err
	}
	shape := make([]int, rank[0])
	total := 1
	for j := range shape {
		var d uint32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return s, err
		}
		if d > 1<<28 {
			return s, fmt.Errorf("snapshot: dimension %d too large", d)
		}
		shape[j] = int(d)
		total *= int(d)
	}
	data := make([]float32, total)
	if err := binary.Read(r, binary.LittleEndian, data); err != nil {
		return s, fmt.Errorf("snapshot: reading %q payload: %w", nameBuf, err)
	}
	return section{name: string(nameBuf), shape: shape, data: data}, nil
}

func readSections(r io.Reader) ([]section, error) {
	br := bufio.NewReader(r)
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", m)
	}
	v, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if v != version1 && v != version2 {
		return nil, fmt.Errorf("snapshot: unsupported version %d", v)
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("snapshot: implausible section count %d", count)
	}
	secs := make([]section, 0, count)
	for i := uint32(0); i < count; i++ {
		if v == version1 {
			s, err := readSectionBody(br)
			if err != nil {
				return nil, err
			}
			secs = append(secs, s)
			continue
		}
		cr := &crcReader{r: br, crc: crc32.NewIEEE()}
		s, err := readSectionBody(cr)
		if err != nil {
			return nil, err
		}
		sum := cr.crc.Sum32()
		var stored uint32
		if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
			return nil, fmt.Errorf("snapshot: reading %q checksum: %w", s.name, err)
		}
		if sum != stored {
			return nil, fmt.Errorf("snapshot: section %q checksum mismatch (stored %08x, computed %08x): file is corrupt",
				s.name, stored, sum)
		}
		secs = append(secs, s)
	}
	return secs, nil
}

// WriteFileAtomic writes via write() to a temporary file in path's
// directory, fsyncs it, and renames it over path, so that path either
// keeps its previous contents or holds the complete new file — never a
// torn prefix. The directory is fsynced best-effort afterwards so the
// rename itself survives a crash. Snapshots are written through it, and
// so is every address file a script polls for.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmpName, path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best-effort: some filesystems (and non-Unix platforms) reject
// fsync on directories, and the rename is still atomic without it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

func netSections(n *net.Net) []section {
	params := n.Params()
	names := n.ParamNames()
	secs := make([]section, len(params))
	for i, p := range params {
		secs[i] = section{name: names[i], shape: p.Shape(), data: p.Data()}
	}
	for _, l := range n.Layers() {
		st, ok := l.(layers.Stater)
		if !ok {
			continue
		}
		for i, b := range st.StateBlobs() {
			secs = append(secs, section{
				name:  fmt.Sprintf("%s%s__%d", statePrefix, l.Name(), i),
				shape: b.Shape(),
				data:  b.Data(),
			})
		}
	}
	return secs
}

// fills pairs every buffer a load overwrites with the section payload that
// overwrites it. A load checks every section it needs into one fills
// before it copies any, so a rejected snapshot leaves the net and the
// solver exactly as they were.
type fills struct {
	byName map[string]section
	dst    [][]float32
	src    [][]float32
}

func newFills(secs []section) *fills {
	f := &fills{byName: make(map[string]section, len(secs))}
	for _, s := range secs {
		f.byName[s.name] = s
	}
	return f
}

// add queues the payload of the section called name for dst, or reports
// (as what) why it cannot fill dst.
func (f *fills) add(name string, dst []float32, what string) error {
	sec, ok := f.byName[name]
	if !ok {
		return fmt.Errorf("snapshot: missing %s", what)
	}
	if len(sec.data) != len(dst) {
		return fmt.Errorf("snapshot: %s size mismatch: %d values, want %d", what, len(sec.data), len(dst))
	}
	f.dst = append(f.dst, dst)
	f.src = append(f.src, sec.data)
	return nil
}

// addNet queues every parameter and every layer-state blob of n.
func (f *fills) addNet(n *net.Net) error {
	names := n.ParamNames()
	for i, p := range n.Params() {
		if err := f.add(names[i], p.Data(), fmt.Sprintf("parameter %q", names[i])); err != nil {
			return err
		}
	}
	for _, l := range n.Layers() {
		st, ok := l.(layers.Stater)
		if !ok {
			continue
		}
		for i, b := range st.StateBlobs() {
			key := fmt.Sprintf("%s%s__%d", statePrefix, l.Name(), i)
			if err := f.add(key, b.Data(), fmt.Sprintf("layer state %q", key)); err != nil {
				return err
			}
		}
	}
	return nil
}

// apply writes every queued payload into its buffer.
func (f *fills) apply() {
	for i, dst := range f.dst {
		copy(dst, f.src[i])
	}
}

// SaveNet writes the network's learnable parameters.
func SaveNet(w io.Writer, n *net.Net) error {
	return writeSections(w, netSections(n))
}

// LoadNet restores parameters saved by SaveNet into an architecturally
// identical network (matched by parameter name and element count). Every
// section is checked before any is copied, so a rejected file leaves the
// net unmodified.
func LoadNet(r io.Reader, n *net.Net) error {
	secs, err := readSections(r)
	if err != nil {
		return err
	}
	f := newFills(secs)
	if err := f.addNet(n); err != nil {
		return err
	}
	f.apply()
	return nil
}

// LoadNetFile restores parameters from a file written by SaveNet.
func LoadNetFile(path string, n *net.Net) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadNet(f, n)
}

// solver state is stored as extra sections with reserved names.
const (
	iterSection    = "__solver_iter__"
	historyPrefix  = "__history__"
	history2Prefix = "__history2__"
	statePrefix    = "__state__"
)

// SaveSolver writes network parameters plus solver state (iteration
// counter and update history), enabling exact training resumption.
func SaveSolver(w io.Writer, s *solver.Solver) error {
	secs := netSections(s.Net())
	secs = append(secs, section{
		name:  iterSection,
		shape: []int{1},
		data:  []float32{float32(s.Iter())},
	})
	for i, h := range s.History() {
		secs = append(secs, section{
			name:  fmt.Sprintf("%s%d", historyPrefix, i),
			shape: h.Shape(),
			data:  h.Data(),
		})
	}
	for i, h := range s.History2() {
		secs = append(secs, section{
			name:  fmt.Sprintf("%s%d", history2Prefix, i),
			shape: h.Shape(),
			data:  h.Data(),
		})
	}
	return writeSections(w, secs)
}

// LoadSolver restores a snapshot written by SaveSolver into a solver built
// over an architecturally identical network.
//
// The whole file is parsed and checksum-validated, and every section the
// solver needs is checked for presence and size, before any solver state
// is touched: a corrupt snapshot, a net-only file or one written by a
// different solver type leaves the solver unmodified.
func LoadSolver(r io.Reader, s *solver.Solver) error {
	secs, err := readSections(r)
	if err != nil {
		return err
	}
	f := newFills(secs)
	it, ok := f.byName[iterSection]
	if !ok || len(it.data) != 1 {
		return fmt.Errorf("snapshot: not a solver snapshot (no iteration section)")
	}
	if err := f.addNet(s.Net()); err != nil {
		return err
	}
	for i, h := range s.History() {
		if err := f.add(fmt.Sprintf("%s%d", historyPrefix, i), h.Data(), fmt.Sprintf("history %d", i)); err != nil {
			return err
		}
	}
	for i, h := range s.History2() {
		if err := f.add(fmt.Sprintf("%s%d", history2Prefix, i), h.Data(), fmt.Sprintf("second-moment history %d", i)); err != nil {
			return fmt.Errorf("%w (snapshot from a different solver type?)", err)
		}
	}
	f.apply()
	s.RestoreIter(int(it.data[0]))
	return nil
}

// SaveSolverFile atomically writes solver state to path
// (temp + fsync + rename; see WriteFileAtomic).
func SaveSolverFile(path string, s *solver.Solver) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return SaveSolver(w, s) })
}

// PeekSolverIter reads just the iteration counter out of a solver
// snapshot without needing the network it was saved from. The elastic
// fault-tolerance layer uses it to learn the fence point of a
// checkpoint before any rank has built (or re-built) its net: the
// data cursor must be skipped to that iteration for the resumed run
// to see the same batches a clean run would. The whole file is still
// parsed and checksum-validated, so a torn or corrupt snapshot is
// rejected here rather than half-adopted later.
func PeekSolverIter(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	secs, err := readSections(f)
	if err != nil {
		return 0, err
	}
	for _, sec := range secs {
		if sec.name == iterSection && len(sec.data) == 1 {
			return int(sec.data[0]), nil
		}
	}
	return 0, fmt.Errorf("snapshot: %s is not a solver snapshot (no iteration section)", path)
}

// LoadSolverFile restores solver state from a file written by
// SaveSolverFile.
func LoadSolverFile(path string, s *solver.Solver) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadSolver(f, s)
}
