// Command idlgen compiles an IDL file into Go stubs and skeletons for
// the zcorba ORB, mirroring the paper's modified MICO IDL compiler.
//
// Usage:
//
//	idlgen -pkg media -o media_gen.go [-zerocopy] media.idl
//
// With -zerocopy every sequence<octet> is rewritten to the zero-copy
// sequence<zcoctet>, switching the generated stubs and skeletons to the
// direct-deposit fast path (the ZC_Octet stubs of §4.3). Without it,
// the zcoctet IDL keyword still selects zero-copy per declaration.
package main

import (
	"flag"
	"fmt"
	"go/format"
	"os"

	"zcorba/internal/idl"
)

func main() {
	pkg := flag.String("pkg", "generated", "Go package name for the generated file")
	out := flag.String("o", "", "output file (default stdout)")
	zerocopy := flag.Bool("zerocopy", false, "rewrite sequence<octet> to the zero-copy type")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: idlgen [-pkg name] [-o file.go] [-zerocopy] input.idl")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "idlgen:", err)
		os.Exit(1)
	}
	spec, err := idl.Parse(flag.Arg(0), string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "idlgen:", err)
		os.Exit(1)
	}
	code, err := idl.Generate(spec, idl.GenOptions{Package: *pkg, ZeroCopy: *zerocopy})
	if err == nil {
		code, err = format.Source(code)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "idlgen:", err)
		os.Exit(1)
	}
	if *out == "" {
		os.Stdout.Write(code)
		return
	}
	if err := os.WriteFile(*out, code, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "idlgen:", err)
		os.Exit(1)
	}
}
