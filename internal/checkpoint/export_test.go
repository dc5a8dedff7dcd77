package checkpoint

// LogFrameEnds returns the offsets at which the header frame and each
// whole record after it end in a cone log, for tests that cut or damage a
// log at frame boundaries.
func LogFrameEnds(data []byte) []int {
	var ends []int
	if len(data) < logPrefix {
		return nil
	}
	off, rest := logPrefix, data[logPrefix:]
	for {
		_, next, ok := nextFrame(rest)
		if !ok {
			return ends
		}
		off += len(rest) - len(next)
		ends = append(ends, off)
		rest = next
	}
}
