//go:build linux

package storage

import (
	"os"
	"syscall"
	"unsafe"
)

// readAtv fills bufs, in order, from f starting at byte off with one
// positional scatter read (preadv(2)) straight into the callers' buffers:
// no staging copy, no per-call staging allocation. It returns the bytes
// read; fewer than the buffers hold means the file ended. The descriptor
// is borrowed through RawConn.Control, which keeps it open for the call
// without the per-file read lock RawConn.Read would take, so concurrent
// positional reads of one file still overlap, as they do through ReadAt.
func readAtv(f *os.File, bufs [][]byte, off int64) (int, error) {
	iov := make([]syscall.Iovec, 0, len(bufs))
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		v := syscall.Iovec{Base: &b[0]}
		v.SetLen(len(b))
		iov = append(iov, v)
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return 0, err
	}
	// preadv takes the offset as two longs, low and high; on 64-bit
	// kernels the low one holds all of it and the high one must be 0.
	const halfLong = 4 * unsafe.Sizeof(uintptr(0))
	total := 0
	for len(iov) > 0 {
		var n uintptr
		var errno syscall.Errno
		cerr := rc.Control(func(fd uintptr) {
			n, _, errno = syscall.Syscall6(syscall.SYS_PREADV, fd,
				uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)),
				uintptr(off), uintptr(uint64(off)>>halfLong>>halfLong), 0)
		})
		switch {
		case cerr != nil:
			return total, cerr
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return total, errno
		case n == 0:
			return total, nil // end of file
		}
		total += int(n)
		off += int64(n)
		// A short transfer (the file ended mid-way, or a signal) resumes
		// after the bytes already placed.
		for n > 0 && len(iov) > 0 {
			if l := uintptr(iov[0].Len); n >= l {
				n -= l
				iov = iov[1:]
				continue
			}
			iov[0].Base = (*byte)(unsafe.Add(unsafe.Pointer(iov[0].Base), n))
			iov[0].SetLen(int(uintptr(iov[0].Len) - n))
			n = 0
		}
	}
	return total, nil
}
