//go:build armbe || arm64be || m68k || mips || mips64 || mips64p32 || ppc || ppc64 || s390 || s390x || shbe || sparc || sparc64

package lots

// Shared objects are little-endian bytes on the wire, in diffs, spill
// files and digests, and View/Ptr alias those bytes as native []T (see
// alias in ptr.go). On a big-endian GOARCH every element would read
// back byte-swapped, so the build stops here with the reason in the
// error message.
var _ = lotsRequiresLittleEndianGOARCHBecauseViewsAliasLittleEndianObjectBytesAsNativeElements
