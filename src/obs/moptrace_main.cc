/** @file moptrace: offline trace analysis (`moptrace --help`). */

#include "obs/render.hh"

int
main(int argc, char **argv)
{
    return mop::obs::moptraceMain(argc, argv);
}
