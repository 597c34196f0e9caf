package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The sharded layer: a relation instance split across multiple CSV
// shard files described by one manifest. Sharding is what takes the
// streaming Source/Sink machinery out-of-core for real: a shard is the
// unit of parallelism (per-shard profile statistics, per-shard encode)
// and the unit of memory (nothing ever materializes more than one shard
// per worker), while the manifest pins the global schema — attribute
// names and, crucially, the class-name index order — so that every
// shard resolves labels identically and shard-wise computation can be
// merged byte-identically to the single-stream result.

// ManifestVersion is the wire version of the manifest format; readers
// reject manifests written by an incompatible version. Version 2 added
// the format field and per-shard checksums; version-1 manifests (plain
// CSV shards, no checksums) still read.
const ManifestVersion = 2

// Shard file formats a manifest can declare.
const (
	// FormatCSV marks shards stored as CSV files with a header row —
	// the version-1 format, still the default when a manifest declares
	// no format.
	FormatCSV = "csv"
	// FormatBin marks shards stored in the binary format (see
	// binshard.go).
	FormatBin = "bin"
)

// ShardInfo describes one shard file of a sharded data set.
type ShardInfo struct {
	// Path locates the shard file, relative to the manifest file
	// (absolute paths are taken as-is).
	Path string `json:"path"`
	// Rows is the declared tuple count of the shard. Readers verify it:
	// a shard that yields a different number of rows fails with
	// ErrBadManifest rather than silently skewing merged statistics.
	Rows int `json:"rows"`
	// Checksum, when non-empty, is the XXH64 digest of the shard file's
	// complete bytes as "xxh64:<16 hex digits>". Readers verify it on
	// the same pass that streams the rows; a mismatch fails with
	// ErrCorruptShard. Version-1 manifests carry no checksums.
	Checksum string `json:"checksum,omitempty"`
}

// Manifest is the on-disk description of a sharded data set: the
// global schema plus the ordered shard list. The shard order is the
// row order of the logical relation — shard i's rows precede shard
// i+1's — and ClassNames fixes the label index of every class name
// across all shards, mirroring ReadCSV's order-of-first-appearance
// assignment so that a sharded read and a concatenated single-file
// read produce identical label indices.
type Manifest struct {
	Version int `json:"version"`
	// Format names the shard file format, FormatCSV or FormatBin.
	// Empty means FormatCSV, which is what every version-1 manifest
	// is.
	Format string `json:"format,omitempty"`
	// AttrNames holds one name per attribute column; every CSV shard's
	// header must match them exactly (plus the trailing "class"), and
	// every binary shard's header must declare their count.
	AttrNames []string `json:"attrs"`
	// ClassNames fixes the global class → label-index mapping.
	ClassNames []string `json:"classes"`
	// Shards lists the shard files in row order.
	Shards []ShardInfo `json:"shards"`
}

// TotalRows returns the declared tuple count across all shards — the
// size hint progress reporting consumes via Total().
func (m *Manifest) TotalRows() int {
	n := 0
	for _, s := range m.Shards {
		n += s.Rows
	}
	return n
}

// NumShards returns the number of shard files.
func (m *Manifest) NumShards() int { return len(m.Shards) }

// EffectiveFormat returns the shard file format the manifest declares,
// defaulting empty (every version-1 manifest) to FormatCSV.
func (m *Manifest) EffectiveFormat() string {
	if m.Format == "" {
		return FormatCSV
	}
	return m.Format
}

// Validate checks the structural invariants of the manifest itself
// (shard files are only touched when read).
func (m *Manifest) Validate() error {
	if m.Version < 1 || m.Version > ManifestVersion {
		return fmt.Errorf("manifest version %d, want 1..%d: %w", m.Version, ManifestVersion, ErrBadManifest)
	}
	switch m.EffectiveFormat() {
	case FormatCSV:
	case FormatBin:
		if m.Version < 2 {
			return fmt.Errorf("manifest version %d cannot declare format %q: %w", m.Version, m.Format, ErrBadManifest)
		}
	default:
		return fmt.Errorf("manifest format %q, want %q or %q: %w", m.Format, FormatCSV, FormatBin, ErrBadManifest)
	}
	if len(m.AttrNames) == 0 {
		return fmt.Errorf("manifest declares no attributes: %w", ErrBadManifest)
	}
	seen := make(map[string]bool, len(m.ClassNames))
	for _, c := range m.ClassNames {
		if seen[c] {
			return fmt.Errorf("manifest lists class %q twice: %w", c, ErrBadManifest)
		}
		seen[c] = true
	}
	for i, s := range m.Shards {
		if s.Path == "" {
			return fmt.Errorf("shard %d has no path: %w", i, ErrBadManifest)
		}
		if s.Rows < 0 {
			return fmt.Errorf("shard %d declares %d rows: %w", i, s.Rows, ErrBadManifest)
		}
		if s.Checksum != "" {
			if _, err := parseChecksum(s.Checksum); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// schema builds the fixed schema the manifest declares. Unlike a
// streaming CSV schema, ClassNames never grows: unknown class names in
// a shard are errors, not discoveries.
func (m *Manifest) schema() *Schema {
	return &Schema{
		AttrNames:  append([]string(nil), m.AttrNames...),
		ClassNames: append([]string(nil), m.ClassNames...),
	}
}

// WriteManifest writes the manifest as indented JSON.
func WriteManifest(m *Manifest, path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadManifest parses and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := new(Manifest)
	if err := json.Unmarshal(blob, m); err != nil {
		return nil, fmt.Errorf("%s: %w: %w", path, err, ErrBadManifest)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// ShardedSource streams a sharded data set in shard order. It
// implements Source (drained sequentially it yields exactly the
// concatenation of its shards) and additionally exposes the per-shard
// structure — NumShards, Shard(i) — that the out-of-core profile and
// apply stages fan out over. Labels resolve against the manifest's
// fixed ClassNames, so every shard, and every per-shard sub-source,
// agrees on the label index of each class.
type ShardedSource struct {
	m       *Manifest
	dir     string
	schema  *Schema
	classes map[string]int
	workers int // CSV codec width of the shard readers; <= 0: the default
	next    int // next shard index to open
	cur     *ShardSource
}

// OpenSharded opens a sharded data set by its manifest path. Shard
// paths inside the manifest resolve relative to the manifest's
// directory.
func OpenSharded(manifestPath string) (*ShardedSource, error) {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	return NewShardedSource(m, filepath.Dir(manifestPath)), nil
}

// NewShardedSource returns a Source over an already-parsed manifest
// whose shard paths resolve relative to dir.
func NewShardedSource(m *Manifest, dir string) *ShardedSource {
	s := &ShardedSource{m: m, dir: dir, schema: m.schema()}
	s.classes = make(map[string]int, len(m.ClassNames))
	for i, c := range m.ClassNames {
		s.classes[c] = i
	}
	return s
}

// Schema implements Source. The class list is fixed by the manifest;
// it never grows during reading.
func (s *ShardedSource) Schema() *Schema { return s.schema }

// Total reports the declared tuple count across all shards — the size
// hint obs progress reporting discovers through Total().
func (s *ShardedSource) Total() int { return s.m.TotalRows() }

// NumShards returns the number of shards.
func (s *ShardedSource) NumShards() int { return s.m.NumShards() }

// ShardRows returns the declared row count of shard i.
func (s *ShardedSource) ShardRows(i int) int { return s.m.Shards[i].Rows }

// Manifest returns the manifest the source was opened with. The caller
// must not mutate it.
func (s *ShardedSource) Manifest() *Manifest { return s.m }

// Next implements Source, crossing shard boundaries transparently. A
// returned block never spans two shards, so block row order equals
// concatenated shard row order at any block size.
func (s *ShardedSource) Next(max int) (*Block, error) {
	for {
		if s.cur == nil {
			if s.next >= len(s.m.Shards) {
				return nil, io.EOF
			}
			sh, err := s.Shard(s.next)
			if err != nil {
				return nil, err
			}
			s.cur = sh
			s.next++
		}
		blk, err := s.cur.Next(max)
		if err != io.EOF {
			return blk, err
		}
		s.cur = nil
	}
}

// Close releases the currently open shard file, if any. Draining the
// source to io.EOF closes everything already; Close covers early
// abandonment.
func (s *ShardedSource) Close() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// ShardSource streams a single shard of a sharded data set, in either
// shard format (ShardedSource.Shard, NewBinaryShardSource). It
// implements Source with the manifest's fixed global schema, so labels
// read from any shard agree with the sharded whole — the property that
// makes per-shard statistics mergeable. Independent ShardSources are
// safe to read concurrently (each owns its own file handle and
// buffers).
type ShardSource struct {
	r    rowReader
	s    *Schema
	rows int
	buf  Block
}

// Shard opens shard i as an independent single-shard Source.
func (s *ShardedSource) Shard(i int) (*ShardSource, error) {
	if i < 0 || i >= len(s.m.Shards) {
		return nil, fmt.Errorf("shard %d outside [0,%d): %w", i, len(s.m.Shards), ErrBadManifest)
	}
	r, err := openShard(s.dir, s.m, s.classes, i, s.workers)
	if err != nil {
		return nil, err
	}
	return &ShardSource{r: r, s: s.schema, rows: s.m.Shards[i].Rows}, nil
}

// Schema implements Source.
func (s *ShardSource) Schema() *Schema { return s.s }

// Total reports the shard's declared row count.
func (s *ShardSource) Total() int { return s.rows }

// Next implements Source.
func (s *ShardSource) Next(max int) (*Block, error) {
	if s.r == nil {
		return nil, io.EOF
	}
	blk, err := s.r.next(max, &s.buf)
	if err == io.EOF {
		cerr := s.r.close()
		s.r = nil
		if cerr != nil {
			return nil, cerr
		}
		return nil, io.EOF
	}
	return blk, err
}

// Close releases the shard file if the shard was not drained to EOF.
func (s *ShardSource) Close() error {
	if s.r == nil {
		return nil
	}
	err := s.r.close()
	s.r = nil
	return err
}

// rowReader is the per-format shard reading contract behind openShard:
// serve blocks of rows verified against the manifest, then close the
// file, whether drained to EOF (all checks passed) or abandoned early.
type rowReader interface {
	next(max int, buf *Block) (*Block, error)
	close() error
}

// shardReader reads one CSV shard against the manifest's fixed class
// mapping, verifying the header, the declared row count and — when the
// manifest carries one — the checksum over the file bytes.
type shardReader struct {
	f        *os.File
	h        *xxh64
	dec      *csvDecoder
	path     string
	classes  map[string]int
	declared int
	want     string // manifest checksum; "" skips verification
	read     int
}

// openShard opens shard i of the manifest in the manifest's declared
// format and validates its header. workers is the CSV codec width
// (<= 0: the default).
func openShard(dir string, m *Manifest, classes map[string]int, i, workers int) (rowReader, error) {
	path := m.Shards[i].Path
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	if m.EffectiveFormat() == FormatBin {
		return newBinShardReader(f, path, len(m.AttrNames), len(m.ClassNames), m.Shards[i].Rows, m.Shards[i].Checksum)
	}
	h := newXXH64()
	dec, err := newCSVDecoder(io.TeeReader(f, h), workers)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shard %s: reading header: %w: %w", path, err, ErrBadManifest)
	}
	header := dec.header
	if len(header) != len(m.AttrNames)+1 || header[len(header)-1] != "class" {
		f.Close()
		return nil, fmt.Errorf("shard %s: header has %d columns, manifest declares %d attributes: %w",
			path, len(header), len(m.AttrNames), ErrBadManifest)
	}
	for a, name := range m.AttrNames {
		if header[a] != name {
			f.Close()
			return nil, fmt.Errorf("shard %s: header column %d is %q, manifest declares %q: %w",
				path, a, header[a], name, ErrBadManifest)
		}
	}
	return &shardReader{
		f:        f,
		h:        h,
		dec:      dec,
		path:     path,
		classes:  classes,
		declared: m.Shards[i].Rows,
		want:     m.Shards[i].Checksum,
	}, nil
}

// next fills buf with up to max tuples and returns it, or io.EOF once
// the shard is exhausted and its row count verified. The block aliases
// buf; it is valid until the next call.
func (r *shardReader) next(max int, buf *Block) (*Block, error) {
	if max <= 0 {
		max = defaultBlockRows
	}
	err := r.dec.decode(max, buf, r.class)
	if err == nil {
		return buf, nil
	}
	if err != io.EOF {
		return nil, fmt.Errorf("shard %s: %w", r.path, err)
	}
	if r.read != r.declared {
		return nil, fmt.Errorf("shard %s has %d rows, manifest declares %d: %w",
			r.path, r.read, r.declared, ErrBadManifest)
	}
	// The decoder hit EOF, so every file byte has passed through the
	// hash tee.
	if r.want != "" {
		want, err := parseChecksum(r.want)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", r.path, err)
		}
		if got := r.h.Sum64(); got != want {
			return nil, fmt.Errorf("shard %s: checksum %s, manifest declares %s: %w",
				r.path, formatChecksum(got), r.want, ErrCorruptShard)
		}
	}
	return nil, io.EOF
}

// class resolves a row's class name against the manifest and counts the
// row against the declared total.
func (r *shardReader) class(name []byte) (int, error) {
	label, ok := r.classes[string(name)]
	if !ok {
		return 0, fmt.Errorf("class %q not in manifest: %w", name, ErrBadManifest)
	}
	r.read++
	if r.read > r.declared {
		return 0, fmt.Errorf("more than the declared %d rows: %w", r.declared, ErrBadManifest)
	}
	return label, nil
}

// close releases the shard file.
func (r *shardReader) close() error { return r.f.Close() }
