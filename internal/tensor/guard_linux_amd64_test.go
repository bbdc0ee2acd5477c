//go:build linux && amd64

package tensor

import (
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns a copy of src that ends exactly where an inaccessible page
// begins, so that touching one byte past its last element faults. The
// mapping is released when the test ends.
func guarded[E Elem](t *testing.T, src []E) []E {
	t.Helper()
	page := syscall.Getpagesize()
	size := len(src) * int(unsafe.Sizeof(src[0]))
	pages := (size + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (pages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[pages*page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	out := unsafe.Slice((*E)(unsafe.Pointer(&mem[pages*page-size])), len(src))
	copy(out, src)
	return out
}
