//! Seeded vocabularies for synthetic value generation.

/// First names for people-valued attributes.
pub(crate) const FIRST_NAMES: &[&str] = &[
    "James",
    "Mary",
    "Robert",
    "Patricia",
    "John",
    "Jennifer",
    "Michael",
    "Linda",
    "David",
    "Elizabeth",
    "William",
    "Barbara",
    "Richard",
    "Susan",
    "Joseph",
    "Jessica",
    "Thomas",
    "Sarah",
    "Christopher",
    "Karen",
    "Charles",
    "Lisa",
    "Daniel",
    "Nancy",
    "Matthew",
    "Betty",
    "Anthony",
    "Sandra",
    "Mark",
    "Margaret",
    "Donald",
    "Ashley",
    "Steven",
    "Kimberly",
    "Andrew",
    "Emily",
    "Paul",
    "Donna",
    "Joshua",
    "Michelle",
    "Kenneth",
    "Carol",
    "Kevin",
    "Amanda",
    "Brian",
    "Melissa",
    "George",
    "Deborah",
    "Timothy",
    "Stephanie",
    "Akira",
    "Hiro",
    "Sofia",
    "Luis",
    "Pedro",
    "Ingmar",
    "Federico",
    "Jean",
    "Claude",
    "Wong",
    "Ang",
    "Bong",
];

/// Last names for people-valued attributes.
pub(crate) const LAST_NAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
    "Kurosawa",
    "Fellini",
    "Bergman",
    "Truffaut",
    "Kar-wai",
    "Joon-ho",
    "Villeneuve",
    "Nolan",
    "Scorsese",
    "Kubrick",
];

/// Words that movie titles are assembled from.
pub(crate) const TITLE_WORDS: &[&str] = &[
    "Shadow", "Empire", "Return", "Night", "Dawn", "Storm", "Silent", "Broken", "Golden", "Hidden",
    "Last", "First", "Dark", "Bright", "Lost", "Found", "Winter", "Summer", "Autumn", "Spring",
    "River", "Mountain", "Ocean", "Desert", "City", "Village", "Garden", "Bridge", "Tower",
    "Castle", "Dream", "Memory", "Promise", "Secret", "Whisper", "Echo", "Mirror", "Window",
    "Door", "Key", "Crown", "Sword", "Rose", "Thorn", "Ash", "Ember", "Frost", "Blood", "Stone",
    "Iron", "Glass", "Paper", "Silk", "Velvet", "Crimson", "Azure", "Jade", "Amber", "Scarlet",
    "Raven", "Falcon", "Wolf", "Lion", "Serpent", "Dragon", "Phoenix",
];

/// Movie genres.
pub(crate) const GENRES: &[&str] = &[
    "Drama",
    "Comedy",
    "Thriller",
    "Action",
    "Romance",
    "Horror",
    "Science Fiction",
    "Western",
    "Documentary",
    "Animation",
    "Crime",
    "Mystery",
    "Fantasy",
    "War",
    "Musical",
    "Film Noir",
    "Adventure",
    "Biography",
    "History",
    "Sport",
];

/// Spoken languages.
pub(crate) const LANGUAGES: &[&str] = &[
    "English",
    "French",
    "Spanish",
    "German",
    "Italian",
    "Japanese",
    "Korean",
    "Mandarin",
    "Cantonese",
    "Hindi",
    "Portuguese",
    "Russian",
    "Swedish",
    "Danish",
    "Polish",
    "Turkish",
];

/// Production countries.
pub(crate) const COUNTRIES: &[&str] = &[
    "USA",
    "United Kingdom",
    "France",
    "Germany",
    "Italy",
    "Japan",
    "South Korea",
    "China",
    "India",
    "Brazil",
    "Russia",
    "Sweden",
    "Denmark",
    "Poland",
    "Canada",
    "Australia",
    "Mexico",
    "Spain",
];

/// Studios / production companies.
pub(crate) const STUDIOS: &[&str] = &[
    "Paramount Pictures",
    "Warner Bros",
    "Universal Pictures",
    "Columbia Pictures",
    "20th Century Studios",
    "Metro Goldwyn Mayer",
    "United Artists",
    "Lionsgate",
    "Focus Features",
    "A24",
    "Miramax",
    "New Line Cinema",
    "Studio Ghibli",
    "Toho",
    "Gaumont",
    "Pathe",
    "Canal Plus",
    "BBC Films",
    "Working Title",
    "Legendary Pictures",
];

/// Plot keywords.
pub(crate) const KEYWORDS: &[&str] = &[
    "revenge",
    "betrayal",
    "redemption",
    "heist",
    "conspiracy",
    "survival",
    "family",
    "friendship",
    "love triangle",
    "coming of age",
    "road trip",
    "time travel",
    "amnesia",
    "undercover",
    "courtroom",
    "haunted house",
    "small town",
    "big city",
    "post apocalyptic",
    "space exploration",
    "artificial intelligence",
    "serial killer",
    "bank robbery",
    "political intrigue",
    "war crimes",
    "underdog",
    "rivalry",
    "sacrifice",
    "identity",
];

/// Per-canonical-attribute display-name aliases: sources pick one at
/// random, so the same semantic attribute surfaces under different names
/// in different schemas (the crux of heterogeneity).
pub(crate) const ALIASES: &[(&str, &[&str])] = &[
    (
        "title",
        &["title", "name", "film", "movie_title", "primary_title"],
    ),
    ("year", &["year", "release_year", "yr", "date_published"]),
    ("director", &["director", "directed_by", "dir", "filmmaker"]),
    ("actor1", &["actor", "star", "lead", "cast_1", "starring"]),
    ("actor2", &["actor_2", "co_star", "supporting", "cast_2"]),
    ("genre", &["genre", "category", "type", "kind"]),
    (
        "runtime",
        &["runtime", "duration", "length_min", "running_time"],
    ),
    ("language", &["language", "lang", "spoken_language"]),
    ("country", &["country", "nation", "produced_in", "origin"]),
    ("rating", &["rating", "score", "avg_vote", "user_rating"]),
    (
        "writer",
        &["writer", "screenplay", "written_by", "scenarist"],
    ),
    (
        "studio",
        &["studio", "production_company", "produced_by", "company"],
    ),
    ("budget", &["budget", "cost", "production_budget"]),
    (
        "gross",
        &["gross", "box_office", "worldwide_gross", "revenue"],
    ),
    ("votes", &["votes", "num_votes", "vote_count"]),
    ("keyword", &["keyword", "plot_keyword", "tag", "theme"]),
    (
        "release_date",
        &["release_date", "released", "premiere", "opening_date"],
    ),
    ("composer", &["composer", "music_by", "soundtrack"]),
    ("editor", &["editor", "edited_by", "film_editor"]),
    (
        "cinematographer",
        &["cinematographer", "dop", "camera", "photography"],
    ),
    (
        "producer",
        &["producer", "produced_by_person", "exec_producer"],
    ),
    (
        "distributor",
        &["distributor", "distributed_by", "released_by"],
    ),
    ("tagline", &["tagline", "slogan", "tag_line", "catchphrase"]),
    ("imdb_id", &["imdb_id", "external_id", "ref_id"]),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_nonempty_and_distinct() {
        for list in [
            FIRST_NAMES,
            LAST_NAMES,
            TITLE_WORDS,
            GENRES,
            LANGUAGES,
            COUNTRIES,
            STUDIOS,
            KEYWORDS,
        ] {
            assert!(!list.is_empty());
            let mut v: Vec<&str> = list.to_vec();
            v.sort_unstable();
            v.dedup();
            assert_eq!(v.len(), list.len(), "duplicate vocab entry");
        }
    }

    #[test]
    fn aliases_cover_every_catalog_attr() {
        assert_eq!(ALIASES.len(), 24);
        for (canon, aliases) in ALIASES {
            assert!(!aliases.is_empty(), "{canon} has no aliases");
        }
    }
}
