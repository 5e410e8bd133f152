package core

import (
	"fmt"
	"io"
	"os"

	"postlob/internal/adt"
	"postlob/internal/catalog"
)

// fileObject implements u-file and p-file large objects (§6.1, §6.2): the
// database stores only the file's name; bytes live in an ordinary file. The
// implementation "has the advantage of being simple, and gives the user
// complete control over object placement", and none of the transactional
// guarantees of the chunked implementations — writes are immediate and
// aborts do not undo them.
type fileObject struct {
	store  *Store
	ref    adt.ObjectRef
	f      *os.File
	met    *lobMetrics // u-file or p-file instrument set, fixed at open
	pos    int64
	last   int64 // end of the previous I/O, for sequentiality modelling
	closed bool
}

var _ Object = (*fileObject)(nil)

func (s *Store) openFileObject(ref adt.ObjectRef, meta *catalog.LargeObjectMeta) (Object, error) {
	f, err := os.OpenFile(meta.Path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("core: open %v (%s): %w", meta.Kind, meta.Path, err)
	}
	return &fileObject{store: s, ref: ref, f: f, met: lobMetricsFor(meta.Kind), last: -1}, nil
}

// Ref implements Object.
func (o *fileObject) Ref() adt.ObjectRef { return o.ref }

// Read implements io.Reader at the handle's seek position.
func (o *fileObject) Read(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	n, err := o.f.ReadAt(p, o.pos)
	o.met.reads.Inc()
	o.met.readBytes.Add(int64(n))
	o.store.chargeFileIO(n, o.pos == o.last)
	o.pos += int64(n)
	o.last = o.pos
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

// Write implements io.Writer at the handle's seek position.
func (o *fileObject) Write(p []byte) (int, error) {
	if o.closed {
		return 0, ErrClosed
	}
	n, err := o.f.WriteAt(p, o.pos)
	o.met.writes.Inc()
	o.met.writeBytes.Add(int64(n))
	o.store.chargeFileIO(n, o.pos == o.last)
	o.pos += int64(n)
	o.last = o.pos
	return n, err
}

// Seek implements io.Seeker.
func (o *fileObject) Seek(offset int64, whence int) (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	o.met.seeks.Inc()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = o.pos
	case io.SeekEnd:
		sz, err := o.Size()
		if err != nil {
			return 0, err
		}
		base = sz
	default:
		return 0, fmt.Errorf("core: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, ErrBadSeek
	}
	o.pos = np
	return np, nil
}

// Size implements Object.
func (o *fileObject) Size() (int64, error) {
	if o.closed {
		return 0, ErrClosed
	}
	fi, err := o.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	return fi.Size(), nil
}

// Truncate implements Object.
func (o *fileObject) Truncate(n int64) error {
	if o.closed {
		return ErrClosed
	}
	return o.f.Truncate(n)
}

// Flush implements Object. Writes go straight to the file, so there is
// nothing buffered to flush.
func (o *fileObject) Flush() error { return nil }

// Close implements io.Closer.
func (o *fileObject) Close() error {
	if o.closed {
		return nil
	}
	o.closed = true
	return o.f.Close()
}
