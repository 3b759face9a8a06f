// Package outfile writes the commands' output files so that a failed write
// is never reported as a written file.
package outfile

import (
	"bufio"
	"io"
	"os"
)

// Write creates path, fills it with write through a buffer, and closes it,
// returning the first write, flush or close error. The buffer keeps the
// first write error for the flush, so writers that drop their errors (the
// SVG renderers) are covered too, and close errors surface buffered-writeback
// failures (disk full): a truncated file is never reported as written.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
