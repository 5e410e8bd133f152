//go:build !linux

package storage

import (
	"io"
	"os"
)

// readAtv fills bufs, in order, from f starting at byte off, returning the
// bytes read; fewer than the buffers hold means the file ended. Without
// preadv(2) each buffer takes its own positional read.
func readAtv(f *os.File, bufs [][]byte, off int64) (int, error) {
	total := 0
	for _, b := range bufs {
		n, err := f.ReadAt(b, off)
		total += n
		off += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
