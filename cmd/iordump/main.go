// Command iordump decodes stringified object references: the
// equivalent of MICO's iordump debugging tool. It prints the type ID,
// every tagged profile with its tagged components, and annotates the
// zero-copy extensions (ZCDeposit, ZCShm, ZCShmBcast). A client dials
// the first IIOP profile (docs/NAMING.md).
//
//	iordump 'IOR:0100000022000000...'
//	echo corbaloc::host:2809/NameService | iordump
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"zcorba/internal/ior"
)

func main() {
	var inputs []string
	if len(os.Args) > 1 {
		inputs = os.Args[1:]
	} else {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if s := strings.TrimSpace(sc.Text()); s != "" {
				inputs = append(inputs, s)
			}
		}
	}
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: iordump IOR:... | corbaloc::host:port/key")
		os.Exit(2)
	}
	exit := 0
	for _, in := range inputs {
		if err := dump(in); err != nil {
			fmt.Fprintln(os.Stderr, "iordump:", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func dump(s string) error {
	ref, err := ior.Parse(s)
	if err != nil {
		return err
	}
	fmt.Printf("type ID:  %q\n", ref.TypeID)
	if ref.Nil() {
		fmt.Println("nil object reference")
		return nil
	}
	for i, tp := range ref.Profiles {
		switch tp.Tag {
		case ior.TagInternetIOP:
			p, err := ior.DecodeIIOP(tp)
			if err != nil {
				fmt.Printf("profile %d: IIOP (undecodable: %v)\n", i, err)
				continue
			}
			fmt.Printf("profile %d: IIOP %d.%d  endpoint %s:%d  key %q\n",
				i, p.Major, p.Minor, p.Host, p.Port, p.ObjectKey)
			for _, comp := range p.Components {
				dumpComponent(comp)
			}
		default:
			fmt.Printf("profile %d: tag %d, %d bytes\n", i, tp.Tag, len(tp.Data))
		}
	}
	return nil
}

// dumpComponent prints one tagged component with the richest
// annotation its tag allows.
func dumpComponent(comp ior.TaggedComponent) {
	switch comp.Tag {
	case ior.TagZCDeposit:
		z, err := ior.DecodeZCDeposit(comp.Data)
		if err != nil {
			fmt.Printf("  component ZCDeposit (undecodable: %v)\n", err)
			return
		}
		fmt.Printf("  component ZCDeposit: arch %q, deposits on the control stream (endpoint %s:%d)\n",
			z.Arch, z.Host, z.Port)
	case ior.TagZCShm:
		z, err := ior.DecodeZCShm(comp.Data)
		if err != nil {
			fmt.Printf("  component ZCShm (undecodable: %v)\n", err)
			return
		}
		fmt.Printf("  component ZCShm: arch %q, host ID %q, path %q\n",
			z.Arch, z.HostID, z.Path)
	case ior.TagZCShmBcast:
		z, err := ior.DecodeZCShmBcast(comp.Data)
		if err != nil {
			fmt.Printf("  component ZCShmBcast (undecodable: %v)\n", err)
			return
		}
		fmt.Printf("  component ZCShmBcast: arch %q, host ID %q, path %q\n",
			z.Arch, z.HostID, z.Path)
	default:
		fmt.Printf("  component tag %d: %d bytes\n", comp.Tag, len(comp.Data))
	}
}
