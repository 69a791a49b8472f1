/**
 * @file
 * The entry point of every test binary: gtest's own main, with the
 * "threadsafe" death-test style as the default.
 *
 * A death test runs its statement in a child process.  gtest's default
 * "fast" style forks the process as it stands, so once an earlier test
 * has started ThreadPool::global(), the child inherits the pool's
 * locks without the workers that hold them, and can hang or crash.
 * The threadsafe style re-executes the binary and runs only the death
 * test in the child.  A --gtest_death_test_style on the command line
 * still wins, since InitGoogleTest parses it afterwards.
 */

#include <gtest/gtest.h>

int
main(int argc, char **argv)
{
#ifdef GTEST_FLAG_SET
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
