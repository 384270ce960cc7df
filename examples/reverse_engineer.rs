//! Reverse-engineering a site, end to end — the paper's footnote 2 ("the
//! description of the Web portion is usually an a posteriori one … with
//! the help of tools which semi-automatically analyze the Web") and the
//! Section 5 alternative ("by inference over inclusion constraints, the
//! system might be able to select default navigations"):
//!
//! 1. crawl the site through the wrapper layer,
//! 2. mine link and inclusion constraints from the instance,
//! 3. extend the scheme with the discovered constraints,
//! 4. infer provably-complete default navigations,
//! 5. build a relational view catalog automatically,
//! 6. answer SQL over it — no hand-written catalog anywhere.
//!
//! ```sh
//! cargo run --example reverse_engineer
//! ```

use webviews::prelude::*;
use webviews::wvcore::{auto_catalog, crawl_instance, discover_constraints, infer_navigations};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let u = University::generate(UniversityConfig::default())?;
    let source = LiveSource::for_site(&u.site);

    // 1. explore the site (a crawl through the HTML wrappers)
    let instance = crawl_instance(&u.site.scheme, &source);
    let pages: usize = instance.values().map(Vec::len).sum();
    println!(
        "crawled {pages} pages across {} page-schemes",
        instance.len()
    );

    // 2. mine constraints from what we saw
    let mined = discover_constraints(&u.site.scheme, &instance);
    println!(
        "discovered {} link constraints and {} inclusion constraints, e.g.:",
        mined.link_constraints.len(),
        mined.inclusion_constraints.len()
    );
    for c in mined.link_constraints.iter().take(3) {
        println!("  {c}");
    }
    for c in mined.inclusion_constraints.iter().take(3) {
        println!("  {c}");
    }

    // 3. extend the scheme with everything we learned
    let enriched = u
        .site
        .scheme
        .extended_with(mined.link_constraints, mined.inclusion_constraints)?;

    // 4. infer complete navigations, e.g. for professors
    println!("\ninferred navigations to ProfPage:");
    for nav in infer_navigations(&enriched, "ProfPage", 3) {
        println!(
            "  [{}] {}",
            if nav.complete {
                "complete  "
            } else {
                "incomplete"
            },
            nav.path
        );
    }

    // 5. an automatic relational view over the whole site
    let catalog = auto_catalog(&enriched, 4);
    println!("\nautomatic external view:");
    for rel in catalog.relations() {
        println!(
            "  {}({}) — {} navigation(s)",
            rel.name,
            rel.attrs.join(", "),
            rel.navigations.len()
        );
    }

    // 6. SQL over the inferred view
    let stats = SiteStatistics::from_instance(&enriched, &instance);
    let session = QuerySession::new(&enriched, &catalog, &stats, &source);
    let q = parse_query(
        "SELECT PName, DName FROM ProfPage WHERE Rank = 'Full'",
        &catalog,
    )?;
    u.site.server.reset_stats();
    let outcome = session.run(&q)?;
    println!(
        "\nSELECT PName, DName FROM ProfPage WHERE Rank = 'Full'  →  {} rows, {} page accesses\n",
        outcome.report.relation.len(),
        outcome.measured_pages()
    );
    println!("{}", outcome.report.relation.to_table());
    Ok(())
}
