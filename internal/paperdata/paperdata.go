// Package paperdata curates the inputs of the paper's case study: the
// Table I vulnerabilities with CVSS v2 vectors chosen to reproduce the
// published impact and attack-success-probability values, the critical
// OS vulnerabilities whose counts the paper states or implies (two for
// Windows Server 2012 R2; one critical RHEL flaw doubles as v1web; three
// for Oracle Linux 7, shared by the application and database servers),
// the attack-tree structures of Fig. 3, the example network of Fig. 2
// parameterized by redundancy design, and the Table IV timing parameters.
//
// Where the paper's Table I deviates from NVD (it lists the Windows DNS
// flaw CVE-2016-3227 with attack success probability 1.0 where NVD's
// vector implies 0.86), this dataset follows the paper, since reproducing
// its numbers is the point; every such curation is noted on the record.
package paperdata

import (
	"fmt"
	"strconv"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/cvss"
	"redpatch/internal/patch"
	"redpatch/internal/vulndb"
)

// Products of the example network's software stacks.
const (
	ProductMicrosoftDNS = "Microsoft DNS"
	ProductWindows      = "Windows Server 2012 R2"
	ProductApache       = "Apache HTTP"
	ProductRHEL         = "Red Hat Enterprise Linux"
	ProductWebLogic     = "Oracle WebLogic"
	ProductOracleLinux  = "Oracle Linux 7"
	ProductMySQL        = "MySQL"

	// The alternative web stack used by the heterogeneous-redundancy
	// extension (paper §V): a different web server on a different OS, so
	// a replica pair shares no vulnerability.
	ProductNginx  = "Nginx"
	ProductUbuntu = "Ubuntu Server 16.04"
)

// Server roles of the example network.
const (
	RoleDNS = "dns"
	RoleWeb = "web"
	RoleApp = "app"
	RoleDB  = "db"
	// RoleWebAlt is the alternative web stack for heterogeneous
	// redundancy studies; it serves the same logical tier as RoleWeb.
	RoleWebAlt = "webalt"
)

// Roles lists the four server roles in tier order.
func Roles() []string { return []string{RoleDNS, RoleWeb, RoleApp, RoleDB} }

// RoleSpec names the software stack of a server role.
type RoleSpec struct {
	Role           string
	ServiceProduct string
	OSProduct      string
}

// catalog is the role-to-stack mapping of the paper's §III-A plus the
// alternative web stack of the heterogeneity extension. It is built
// once: KnownStack reads it for every tier of every validated spec.
var catalog = []RoleSpec{
	{Role: RoleDNS, ServiceProduct: ProductMicrosoftDNS, OSProduct: ProductWindows},
	{Role: RoleWeb, ServiceProduct: ProductApache, OSProduct: ProductRHEL},
	{Role: RoleApp, ServiceProduct: ProductWebLogic, OSProduct: ProductOracleLinux},
	{Role: RoleDB, ServiceProduct: ProductMySQL, OSProduct: ProductOracleLinux},
	{Role: RoleWebAlt, ServiceProduct: ProductNginx, OSProduct: ProductUbuntu},
}

const (
	fullRemote = "AV:N/AC:L/Au:N/C:C/I:C/A:C" // impact 10.0, ASP 1.00, base 10.0
	localFull  = "AV:L/AC:L/Au:N/C:C/I:C/A:C" // impact 10.0, ASP 0.39, base 7.2
	mediumFull = "AV:N/AC:M/Au:N/C:C/I:C/A:C" // impact 10.0, ASP 0.86, base 9.3
)

// VulnDB returns the curated vulnerability database: the sixteen distinct
// CVEs of Table I (CVE-2016-4997 appears there twice, as v5app and v5db,
// because the application and database servers share Oracle Linux 7) plus
// the five non-exploitable critical OS vulnerabilities that only matter
// for patch durations.
func VulnDB() *vulndb.DB {
	db := vulndb.New()
	add := func(id, product string, comp vulndb.Component, vector string, exploitable bool, desc string) {
		db.MustAdd(vulndb.Vulnerability{
			ID:          id,
			Product:     product,
			Component:   comp,
			Vector:      cvss.MustParse(vector),
			Exploitable: exploitable,
			Description: desc,
		})
	}

	// DNS server (Table I row v1dns). The paper lists ASP 1.0, so the
	// vector is curated to AV:N/AC:L (NVD scores this CVE AC:M).
	add("CVE-2016-3227", ProductMicrosoftDNS, vulndb.ComponentService, fullRemote, true,
		"Windows DNS server use-after-free RCE (paper v1dns)")

	// Web server: Apache HTTP stack on RHEL (rows v1web..v5web).
	add("CVE-2016-4448", ProductRHEL, vulndb.ComponentOS, fullRemote, true,
		"libxml2 format string flaw in the web host OS image (paper v1web)")
	add("CVE-2015-4602", ProductApache, vulndb.ComponentService, fullRemote, true,
		"web stack incomplete-class unserialize RCE (paper v2web)")
	add("CVE-2015-4603", ProductApache, vulndb.ComponentService, fullRemote, true,
		"web stack exception::getTraceAsString type-confusion RCE (paper v3web)")
	add("CVE-2016-4979", ProductApache, vulndb.ComponentService, "AV:N/AC:L/Au:N/C:P/I:N/A:N", true,
		"Apache HTTP/2 X.509 client-certificate bypass (paper v4web)")
	add("CVE-2016-4805", ProductRHEL, vulndb.ComponentOS, localFull, true,
		"Linux kernel ppp use-after-free local privilege escalation (paper v5web)")

	// Application server: Oracle WebLogic on Oracle Linux 7 (v1app..v5app).
	add("CVE-2016-3586", ProductWebLogic, vulndb.ComponentService, fullRemote, true,
		"WebLogic remote code execution (paper v1app)")
	add("CVE-2016-3510", ProductWebLogic, vulndb.ComponentService, fullRemote, true,
		"WebLogic T3 deserialization RCE (paper v2app)")
	add("CVE-2016-3499", ProductWebLogic, vulndb.ComponentService, fullRemote, true,
		"WebLogic servlet runtime flaw (paper v3app)")
	add("CVE-2016-0638", ProductWebLogic, vulndb.ComponentService, "AV:N/AC:L/Au:N/C:P/I:P/A:P", true,
		"WebLogic JMS deserialization (paper v4app)")
	add("CVE-2016-4997", ProductOracleLinux, vulndb.ComponentOS, localFull, true,
		"Linux kernel netfilter local privilege escalation (paper v5app and v5db)")

	// Database server: MySQL on Oracle Linux 7 (v1db..v4db; v5db above).
	add("CVE-2016-6662", ProductMySQL, vulndb.ComponentService, fullRemote, true,
		"MySQL logging remote root code execution (paper v1db)")
	add("CVE-2016-0639", ProductMySQL, vulndb.ComponentService, fullRemote, true,
		"MySQL protocol remote compromise (paper v2db)")
	add("CVE-2015-3152", ProductMySQL, vulndb.ComponentService, "AV:N/AC:M/Au:N/C:P/I:N/A:N", true,
		"MySQL BACKRONYM SSL downgrade (paper v3db)")
	add("CVE-2016-3471", ProductMySQL, vulndb.ComponentService, localFull, true,
		"MySQL server option parsing local escalation (paper v4db)")

	// Critical OS vulnerabilities that are patched but not remotely
	// exploitable for privilege gain; the paper states the Windows count
	// (two) and the Oracle Linux count (three) follows from Table V.
	add("CVE-2016-3213", ProductWindows, vulndb.ComponentOS, mediumFull, false,
		"Windows WPAD elevation; critical OS patch on the DNS host")
	add("CVE-2016-3299", ProductWindows, vulndb.ComponentOS, mediumFull, false,
		"Windows PDF library RCE; critical OS patch on the DNS host")
	add("CVE-2016-2108", ProductOracleLinux, vulndb.ComponentOS, fullRemote, false,
		"OpenSSL ASN.1 negative-zero memory corruption; critical OS patch")
	add("CVE-2016-0799", ProductOracleLinux, vulndb.ComponentOS, fullRemote, false,
		"OpenSSL BIO_printf memory issue; critical OS patch")
	add("CVE-2016-2842", ProductOracleLinux, vulndb.ComponentOS, fullRemote, false,
		"OpenSSL doapr_outch memory issue; critical OS patch")

	// Alternative web stack (Nginx on Ubuntu) for heterogeneous
	// redundancy studies: no vulnerability shared with the Apache/RHEL
	// stack.
	add("CVE-2016-4450", ProductNginx, vulndb.ComponentService, fullRemote, true,
		"nginx chunked-body NULL write; curated remote compromise of the alt web stack")
	add("CVE-2016-5385", ProductNginx, vulndb.ComponentService, "AV:N/AC:M/Au:N/C:P/I:P/A:P", true,
		"httpoxy request-header proxy poisoning; foothold on the alt web stack")
	add("CVE-2016-4557", ProductUbuntu, vulndb.ComponentOS, localFull, true,
		"Linux BPF double-fdput local privilege escalation")
	add("CVE-2016-1583", ProductUbuntu, vulndb.ComponentOS, mediumFull, false,
		"ecryptfs stack overflow; critical OS patch on the alt web host")

	return db
}

// AltWebTree returns the attack tree of the alternative web stack:
// OR(remote nginx compromise, AND(httpoxy foothold, local privilege
// escalation)). After the critical patch only the AND chain survives,
// with success probability 0.86 x 0.39 — different from the Apache
// stack's 0.39, which is the point of heterogeneity.
func AltWebTree(db *vulndb.DB) *attacktree.Tree {
	return attacktree.New(attacktree.NewOR(
		leaf(db, "CVE-2016-4450"),
		attacktree.NewAND(
			leaf(db, "CVE-2016-5385"),
			leaf(db, "CVE-2016-4557"),
		),
	))
}

// VulnsForRole returns every vulnerability affecting the given role's
// service and OS products.
func VulnsForRole(db *vulndb.DB, role string) ([]vulndb.Vulnerability, error) {
	for _, spec := range catalog {
		if spec.Role != role {
			continue
		}
		out := append(db.ByProduct(spec.ServiceProduct), db.ByProduct(spec.OSProduct)...)
		return out, nil
	}
	return nil, fmt.Errorf("paperdata: unknown role %q", role)
}

// leaf builds an attack-tree leaf from a database record.
func leaf(db *vulndb.DB, id string) *attacktree.Leaf {
	v, ok := db.ByID(id)
	if !ok {
		panic(fmt.Sprintf("paperdata: vulnerability %s missing from dataset", id))
	}
	return attacktree.NewLeaf(v.ID, v.Impact(), v.ASP())
}

// Trees returns the Fig. 3 attack-tree templates per role, with leaf
// values derived from the CVSS vectors (reproducing Table I), plus the
// alternative web stack's tree keyed by RoleWebAlt so variant-aware
// designs resolve their trees from the same map. Extra templates are
// inert for designs that deploy no host of that role.
func Trees(db *vulndb.DB) map[string]*attacktree.Tree {
	return map[string]*attacktree.Tree{
		RoleWebAlt: AltWebTree(db),
		RoleDNS: attacktree.New(attacktree.NewOR(
			leaf(db, "CVE-2016-3227"),
		)),
		RoleWeb: attacktree.New(attacktree.NewOR(
			leaf(db, "CVE-2016-4448"),
			leaf(db, "CVE-2015-4602"),
			leaf(db, "CVE-2015-4603"),
			attacktree.NewAND(
				leaf(db, "CVE-2016-4979"),
				leaf(db, "CVE-2016-4805"),
			),
		)),
		RoleApp: attacktree.New(attacktree.NewOR(
			leaf(db, "CVE-2016-3586"),
			leaf(db, "CVE-2016-3510"),
			leaf(db, "CVE-2016-3499"),
			attacktree.NewAND(
				leaf(db, "CVE-2016-0638"),
				leaf(db, "CVE-2016-4997"),
			),
		)),
		RoleDB: attacktree.New(attacktree.NewOR(
			leaf(db, "CVE-2016-6662"),
			leaf(db, "CVE-2016-0639"),
			attacktree.NewAND(
				leaf(db, "CVE-2015-3152"),
				leaf(db, "CVE-2016-3471"),
			),
			leaf(db, "CVE-2016-4997"),
		)),
	}
}

// Design is a redundancy configuration: replica counts per tier.
type Design struct {
	Name string
	DNS  int
	Web  int
	App  int
	DB   int
}

// appendClassicName appends the canonical compact name of a design
// tuple ("1d2w2a1b") to b — the one naming scheme shared by design
// enumeration and the evaluation service.
func appendClassicName(b []byte, dns, web, app, db int) []byte {
	b = append(strconv.AppendInt(b, int64(dns), 10), 'd')
	b = append(strconv.AppendInt(b, int64(web), 10), 'w')
	b = append(strconv.AppendInt(b, int64(app), 10), 'a')
	return append(strconv.AppendInt(b, int64(db), 10), 'b')
}

// Designs returns the five design choices compared in the paper's §IV.
func Designs() []Design {
	return []Design{
		{Name: "D1", DNS: 1, Web: 1, App: 1, DB: 1},
		{Name: "D2", DNS: 2, Web: 1, App: 1, DB: 1},
		{Name: "D3", DNS: 1, Web: 2, App: 1, DB: 1},
		{Name: "D4", DNS: 1, Web: 1, App: 2, DB: 1},
		{Name: "D5", DNS: 1, Web: 1, App: 1, DB: 2},
	}
}

// BaseDesign returns the case-study network of §III-A: active-active web
// and application clusters (1 DNS + 2 WEB + 2 APP + 1 DB).
func BaseDesign() Design {
	return Design{Name: "base", DNS: 1, Web: 2, App: 2, DB: 1}
}

// ServerParams computes the availability-model parameters of a role:
// Table IV failure/recovery rates plus patch windows derived from the
// role's critical vulnerabilities under the given policy and schedule.
func ServerParams(db *vulndb.DB, role string, pol patch.Policy, sch patch.Schedule) (availability.ServerParams, patch.Plan, error) {
	vulns, err := VulnsForRole(db, role)
	if err != nil {
		return availability.ServerParams{}, patch.Plan{}, err
	}
	plan, err := patch.Compute(role, vulns, pol, sch)
	if err != nil {
		return availability.ServerParams{}, patch.Plan{}, err
	}
	p := availability.DefaultRates(role)
	p.SvcPatchTime = plan.ServicePatchTime
	p.OSPatchTime = plan.OSPatchTime
	p.OSReboot = sch.OSReboot
	p.SvcReboot = sch.ServiceReboot
	p.PatchInterval = sch.Interval
	return p, plan, nil
}
