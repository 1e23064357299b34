#!/usr/bin/env python3
"""Unit tests of check_docs.py's link pass, on throwaway git repositories.

    python3 scripts/test_check_docs.py
"""
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_docs  # noqa: E402


class Links(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.repo = pathlib.Path(tmp.name).resolve()
        subprocess.run(["git", "init", "-q"], cwd=self.repo, check=True)

    def track(self, files):
        """Write {path: text} and add every file to the index."""
        for name, text in files.items():
            path = self.repo / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        subprocess.run(["git", "add", "-A"], cwd=self.repo, check=True)

    def check_links(self):
        with mock.patch.object(check_docs, "REPO", self.repo):
            return check_docs.check_links()

    def test_a_tracked_file_deleted_from_the_tree_is_skipped(self):
        self.track({"README.md": "See [the notes](notes.md).\n",
                    "notes.md": "Back to [the readme](README.md).\n"})
        (self.repo / "notes.md").unlink()  # deleted, deletion not staged
        # The deleted file is not read; the link to it is broken.
        self.assertEqual(self.check_links(),
                         ["README.md:1: broken link 'notes.md' -> notes.md"])

    def test_a_broken_link_is_reported_with_its_line(self):
        self.track({"docs/guide.md": "# Guide\n\n"
                                     "Run [it](../scripts/run.sh), see [up](#guide).\n"
                                     "Then read [more](more.md#top).\n",
                    "scripts/run.sh": "true\n"})
        self.assertEqual(self.check_links(),
                         ["docs/guide.md:4: broken link 'more.md#top' -> docs/more.md"])


if __name__ == "__main__":
    unittest.main()
