//! Materialized views with lazy incremental maintenance (Section 8).
//!
//! The whole site is materialized once; afterwards queries run on the
//! local store, checking freshness with light connections (HEAD) and
//! downloading only the pages that actually changed.
//!
//! ```sh
//! cargo run --example materialized
//! ```

use webviews::matview::maintain;
use webviews::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut u = University::generate(UniversityConfig::default())?;
    let stats = SiteStatistics::from_site(&u.site);
    let catalog = university_catalog();

    // 1. materialize the ADM representation of the site
    let mut store = MatStore::new();
    let downloaded = store.materialize(&u.site.scheme, &u.site.server)?;
    println!("materialized {downloaded} pages locally\n");
    u.site.server.reset_stats();

    let query = ConjunctiveQuery::new("graduate courses")
        .atom("Course")
        .select((0, "Type"), "Graduate")
        .project((0, "CName"))
        .project((0, "Description"));

    // 2. query the unchanged site: light connections only, zero downloads
    {
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &query)?;
        println!(
            "unchanged site → {} light connections, {} downloads, {} rows",
            out.counters.light_connections,
            out.counters.downloads,
            out.relation.len()
        );
    }

    // 3. the autonomous site manager updates a few pages behind our back
    u.update_course_description(7, "Revised syllabus for the new term.")?;
    u.update_course_description(21, "Now includes a project component.")?;
    let new_course = u.add_course(4, "Fall", "Graduate")?;
    println!(
        "\nsite manager edited 2 course pages and added course {new_course} (we were not notified)"
    );

    // 4. the same query now repairs exactly the changed pages
    {
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &query)?;
        println!(
            "after updates  → {} light connections, {} downloads (only changed pages), {} rows",
            out.counters.light_connections,
            out.counters.downloads,
            out.relation.len()
        );
    }

    // 5. deletion: the store notices, skips the page, and defers the
    //    confirmation to the off-line CheckMissing sweep
    let victim = u.course_ids()[0];
    u.remove_course(victim)?;
    {
        let session = MatSession::new(&u.site.scheme, &catalog, &stats, &u.site.server);
        let out = session.run(&mut store, &query)?;
        println!(
            "\nafter a deletion → {} downloads, {} broken links, CheckMissing holds {} URL(s)",
            out.counters.downloads,
            out.broken_links,
            store.check_missing.len()
        );
    }
    let purge = maintain::purge_missing(&mut store, &u.site.server);
    println!(
        "off-line sweep: checked {}, confirmed deleted {}, still alive {}",
        purge.checked, purge.confirmed_deleted, purge.still_alive
    );

    // 6. compare with eager maintenance: a full re-crawl
    u.site.server.reset_stats();
    let n = maintain::full_refresh(&mut store, &u.site.scheme, &u.site.server)?;
    println!(
        "\neager alternative (full refresh): {n} downloads — the lazy strategy did the same \
         job with a handful"
    );
    assert!(maintain::audit(&store, u.site.all_pages()).is_empty());
    println!("audit: store is consistent with the site ✓");
    Ok(())
}
